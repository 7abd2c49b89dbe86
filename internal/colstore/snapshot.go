package colstore

import (
	"slices"
	"sync/atomic"

	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// Snapshot pins one consistent, immutable view of a StringColumn: the
// published version (dictionary, code vector, sealed delta segments) plus a
// frozen prefix of the active delta segment captured at snapshot time. It
// is the only type through which a value ID can be obtained or consumed
// (DESIGN.md, "Value IDs are scoped to a Snapshot"); a query pins each
// column once, through a View.
//
//   - Consistency: value IDs, row values and Len never change for the
//     snapshot's lifetime, whatever appends, merges or rebuilds run
//     concurrently; rows appended and formats chosen afterwards are
//     invisible.
//   - No copy: taking one is O(1) — a single atomic load when the column
//     has no unsealed rows, a brief mutex acquisition otherwise — and
//     holding one only pins the old version's memory until it is dropped.
//   - Single goroutine: trace counters and scratch buffers are plain fields
//     so scans stop contending on shared atomic cache lines; goroutines that
//     scan concurrently each take their own snapshot.
//
// Snapshot methods accumulate the dictionary access counters locally and
// flush them to the column on Release (idempotent); a dropped, unreleased
// snapshot only loses its trace counts — never data.
type Snapshot struct {
	col *StringColumn
	v   *columnVersion

	// The active segment's prefix frozen at snapshot time: vals and rows are
	// length-capped slices of append-only arrays the writer keeps appending
	// to; index is the live map they came from, read only by deltaCode.
	tail deltaSegment

	match []bool // ScanRange's scratch: per segment code, in range or not

	// Deferred trace counters, flushed to the column's atomics by Release.
	// Plain fields: the whole point is that a tight scan loop bumps a local
	// word instead of a cache line shared with every other scanning
	// goroutine.
	locates  uint64
	extracts uint64

	// inUse backs the misuse assertion compiled into race builds (see
	// snapshot_guard_race.go): counter-bumping methods CAS it 0->1 on entry
	// and panic when two goroutines overlap inside the same snapshot. Unused
	// in normal builds, where enter/exit compile to nothing.
	inUse atomic.Int32
}

// Snapshot returns a handle pinning the column's current state. A fully
// merged column (no unsealed rows) is snapshot with a single atomic load;
// otherwise the active prefix is captured under the append mutex (O(1)).
func (c *StringColumn) Snapshot() *Snapshot {
	v := c.version.Load()
	if int64(v.rows()) == c.totalRows.Load() {
		// No rows beyond the published version at the time of the load: the
		// version alone is a complete view. (totalRows is monotone and
		// v.rows() <= totalRows always, so equality proves emptiness of the
		// active segment at that instant.)
		return &Snapshot{col: c, v: v}
	}
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	// Reload under the lock: the version/active boundary only moves at seal
	// time, which also holds appendMu, so this pair is consistent.
	a := c.active
	return &Snapshot{col: c, v: c.version.Load(), tail: deltaSegment{
		vals: a.vals[:len(a.vals):len(a.vals)], index: a.index, rows: a.rows[:len(a.rows):len(a.rows)],
	}}
}

// Release flushes the snapshot's accumulated trace counters to the column
// and marks the snapshot done. Idempotent; the snapshot's read methods
// remain usable afterwards (counts bumped after a Release flush on the
// next one).
func (s *Snapshot) Release() {
	s.enter()
	defer s.exit()
	if s.locates != 0 {
		s.col.locates.Add(s.locates)
		s.locates = 0
	}
	if s.extracts != 0 {
		s.col.extracts.Add(s.extracts)
		s.extracts = 0
	}
}

// Name returns the column name.
func (s *Snapshot) Name() string { return s.col.name }

// Len returns the number of rows visible in the snapshot.
func (s *Snapshot) Len() int { return s.v.rows() + len(s.tail.rows) }

// MainRows returns the number of rows in the read-optimized main part.
func (s *Snapshot) MainRows() int { return s.v.nMain }

// DeltaRows returns the number of delta rows (sealed + captured active
// prefix) visible in the snapshot.
func (s *Snapshot) DeltaRows() int { return s.v.sealedRows + len(s.tail.rows) }

// Format returns the pinned main dictionary's format.
func (s *Snapshot) Format() dict.Format { return s.v.dict.Format() }

// DictLen returns the number of distinct values in the pinned dictionary.
func (s *Snapshot) DictLen() int { return s.v.dict.Len() }

// DictBytes returns the pinned dictionary's memory footprint.
func (s *Snapshot) DictBytes() uint64 { return s.v.dict.Bytes() }

// VectorBytes returns the pinned code vector's memory footprint.
func (s *Snapshot) VectorBytes() uint64 { return s.v.codes.Bytes() }

// DictValues materializes the sorted distinct values of the pinned
// dictionary; see dictValuesOf for why the access counters do not move.
func (s *Snapshot) DictValues() []string { return dictValuesOf(s.v.dict) }

// DictRawBytes returns the summed length of the pinned dictionary's
// distinct values, the uncompressed size it is measured against. Like
// DictValues it is a maintenance read: the access counters do not move.
func (s *Snapshot) DictRawBytes() uint64 {
	var raw uint64
	s.v.dict.ForEach(func(_ uint32, value []byte) bool {
		raw += uint64(len(value))
		return true
	})
	return raw
}

// Stats returns the column's cumulative access counters. The counters are
// live (they keep advancing as others read the column) and exclude this
// snapshot's not-yet-flushed local counts; Release first for exact totals.
func (s *Snapshot) Stats() AccessStats { return s.col.Stats() }

// Get returns the value at the given row (counted as an extract for main
// rows). No locks are taken.
func (s *Snapshot) Get(row int) string {
	s.enter()
	defer s.exit()
	v := s.v
	if row < v.nMain {
		s.extracts++
		return v.dict.Extract(uint32(v.codes.Get(row)))
	}
	if row < v.rows() {
		return v.sealedValue(row - v.nMain)
	}
	return s.tail.vals[s.tail.rows[row-v.rows()]]
}

// AppendGet appends the value at row to dst (allocation-free main-part
// read).
func (s *Snapshot) AppendGet(dst []byte, row int) []byte {
	s.enter()
	defer s.exit()
	v := s.v
	if row < v.nMain {
		s.extracts++
		return v.dict.AppendExtract(dst, uint32(v.codes.Get(row)))
	}
	if row < v.rows() {
		return append(dst, v.sealedValue(row-v.nMain)...)
	}
	return append(dst, s.tail.vals[s.tail.rows[row-v.rows()]]...)
}

// Code returns the main-part value ID at a row; rows in the delta return
// ok == false.
func (s *Snapshot) Code(row int) (uint32, bool) {
	if row < s.v.nMain {
		return uint32(s.v.codes.Get(row)), true
	}
	return 0, false
}

// AppendCodeRange appends the main-part value IDs of rows
// [start, start+n) to dst — the bulk form of Code for tight scan loops,
// decoding 64-256 codes per kernel call instead of one vector access per
// row. The range must lie within the main part; rows at or past MainRows
// panic (they have no stable code).
func (s *Snapshot) AppendCodeRange(dst []uint64, start, n int) []uint64 {
	if start < 0 || n < 0 || start > s.v.nMain-n {
		panic("colstore: AppendCodeRange outside the main part")
	}
	return s.v.codes.AppendRange(dst, start, n)
}

// Locate returns the value ID of value in the pinned dictionary (counted).
func (s *Snapshot) Locate(value string) (uint32, bool) {
	s.enter()
	defer s.exit()
	s.locates++
	return s.v.dict.Locate(value)
}

// LocateBytes is Locate for a byte-slice probe (counted). It avoids the
// string conversion a Locate call site would pay per probe — the
// dictionary-translation fast path.
func (s *Snapshot) LocateBytes(value []byte) (uint32, bool) {
	s.enter()
	defer s.exit()
	s.locates++
	return dict.LocateBytes(s.v.dict, value)
}

// Extract returns the string for a pinned-dictionary value ID (counted).
func (s *Snapshot) Extract(id uint32) string {
	s.enter()
	defer s.exit()
	s.extracts++
	return s.v.dict.Extract(id)
}

// AppendExtract is the allocation-free variant of Extract (counted).
func (s *Snapshot) AppendExtract(dst []byte, id uint32) []byte {
	s.enter()
	defer s.exit()
	s.extracts++
	return s.v.dict.AppendExtract(dst, id)
}

// ForEachValue visits every (id, value) pair of the pinned dictionary in
// id order until fn returns false. Each visit counts as one extract; value
// is only valid during the call. fn must not call back into this snapshot
// (other snapshots are fine — the dictionary-translation path does exactly
// that).
func (s *Snapshot) ForEachValue(fn func(id uint32, value []byte) bool) {
	s.enter()
	defer s.exit()
	s.v.dict.ForEach(func(id uint32, value []byte) bool {
		s.extracts++
		return fn(id, value)
	})
}

// CodeRange translates a string range [lo, hi) into a value-ID range
// [loID, hiID) against the pinned dictionary. Two locates are counted.
func (s *Snapshot) CodeRange(lo, hi string) (uint32, uint32) {
	s.enter()
	defer s.exit()
	s.locates += 2
	loID, _ := s.v.dict.Locate(lo)
	hiID, _ := s.v.dict.Locate(hi)
	return loID, hiID
}

// ScanEq appends to out the rows whose value equals value: the main part
// via one packed-domain equality kernel call (one locate) into out grown by
// the value's count-table entry, and every delta segment by one probe of
// its value index and a segment-code comparison per row.
func (s *Snapshot) ScanEq(value string, out []int) []int {
	s.enter()
	defer s.exit()
	v := s.v
	s.locates++
	if id, found := v.dict.Locate(value); found {
		out = intcomp.ScanEq(v.codes, uint64(id), 0, v.nMain, slices.Grow(out, v.count(id)))
	}
	s.forDelta(func(seg *deltaSegment, off int) {
		if dc, ok := s.deltaCode(seg, value); ok {
			for i, c := range seg.rows {
				if c == dc {
					out = append(out, off+i)
				}
			}
		}
	})
	return out
}

// CountEq returns the number of rows whose value equals value (one
// locate). The main part's count is one lookup in the version's count
// table (see countTable); the code vector is not scanned. Delta segments
// count as in ScanEq.
func (s *Snapshot) CountEq(value string) int {
	s.enter()
	defer s.exit()
	v := s.v
	s.locates++
	count := 0
	if id, found := v.dict.Locate(value); found {
		count = v.count(id)
	}
	s.forDelta(func(seg *deltaSegment, _ int) {
		if dc, ok := s.deltaCode(seg, value); ok {
			for _, c := range seg.rows {
				if c == dc {
					count++
				}
			}
		}
	})
	return count
}

// ScanRange appends to out the rows whose value lies in [lo, hi). Order
// preservation turns the string interval into the code interval
// [loID, hiID) (two locates, Definition 1 insertion points), so the main
// part is one code-range kernel call; every delta segment tests the
// predicate once per distinct value into a reusable match set, then looks
// up each row's segment code.
func (s *Snapshot) ScanRange(lo, hi string, out []int) []int {
	s.enter()
	defer s.exit()
	v := s.v
	s.locates += 2
	loID, _ := v.dict.Locate(lo)
	hiID, _ := v.dict.Locate(hi)
	if loID < hiID {
		out = intcomp.ScanRange(v.codes, uint64(loID), uint64(hiID), 0, v.nMain, out)
	}
	s.forDelta(func(seg *deltaSegment, off int) {
		match, hit := slices.Grow(s.match[:0], len(seg.vals))[:len(seg.vals)], false
		for i, val := range seg.vals {
			match[i] = lo <= val && val < hi
			hit = hit || match[i]
		}
		if s.match = match; !hit {
			return
		}
		for i, dc := range seg.rows {
			if match[dc] {
				out = append(out, off+i)
			}
		}
	})
	return out
}

// forDelta calls fn on each delta segment in row order, the sealed chain
// then the captured active prefix, with the row position of its first row.
func (s *Snapshot) forDelta(fn func(seg *deltaSegment, off int)) {
	off := s.v.nMain
	for _, seg := range s.v.sealed {
		fn(seg, off)
		off += len(seg.rows)
	}
	fn(&s.tail, off)
}

// deltaCode returns seg's segment code for value, if a row of seg holds
// it. The active prefix probes the live active index under appendMu, as
// Append writes it until sealActive hands it on, never to be written again;
// a code past the prefix was first appended after the snapshot.
func (s *Snapshot) deltaCode(seg *deltaSegment, value string) (uint32, bool) {
	if len(seg.vals) == 0 {
		return 0, false
	}
	if seg == &s.tail {
		s.col.appendMu.Lock()
		defer s.col.appendMu.Unlock()
	}
	dc, ok := seg.index[value]
	return dc, ok && int(dc) < len(seg.vals)
}
