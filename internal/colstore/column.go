// Package colstore implements the in-memory column-store substrate the
// paper's evaluation runs on: dictionary-encoded string columns with a
// read-optimized main part and a write-optimized delta part, bit-packed code
// vectors, periodic merge (the moment the compression manager may change the
// dictionary format), plain numeric columns, and the scan/predicate helpers
// the TPC-H queries are built from.
//
// Every dictionary access is counted, so a traced workload yields the
// extract/locate statistics the compression manager's time model needs.
//
// # Concurrency
//
// StringColumn follows an epoch/version design: the entire read state —
// dictionary, code vector, main row count, and the chain of sealed
// (immutable) delta segments — lives in one immutable columnVersion struct
// published through an atomic pointer. Readers load the pointer once and
// never take a mutex on the main part. The live column serves rows and
// values (Get, AppendGet, Len); everything that produces or consumes a value
// ID lives on Snapshot, the explicit handle that pins a single (dict, codes)
// pair across a whole query with zero per-row synchronization.
//
// Writes go to the active delta segment, the only mutable structure, guarded
// by a small per-column mutex whose critical sections are O(1). Sealing moves
// it, frozen, into the published version's sealed chain and starts a fresh
// one; the boundary between published rows and active rows only moves at seal
// time, which holds the append mutex. Every new main part — full merge,
// partial merge, format rebuild — comes from (*StringColumn).fold, which
// documents the seal-build-publish protocol once. Its callers serialize on
// mergeMu, so there is exactly one publisher at a time; readers are never
// blocked, not even for a swap.
//
// Ingest: Append never blocks on merges. The delta is bounded by merge
// throughput alone, and its bytes are counted in Store.Bytes.
//
// Table and Store DDL (AddTable, AddString, …) is not goroutine-safe and
// must complete before concurrent access starts.
package colstore

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// AccessStats counts dictionary operations on a column. Counters are
// cumulative; use Reset between workload traces.
type AccessStats struct {
	Extracts uint64
	Locates  uint64
}

// MergeResult reports what a merge actually did, so schedulers can keep
// honest bookkeeping (a dispatch that found nothing to fold must not count
// as a merge) and benchmarks can measure rows rewritten per merge.
type MergeResult struct {
	// Folded is the number of delta rows moved into the main part.
	Folded int
	// Rewritten is the number of rows whose codes were re-encoded into a new
	// code vector: every main and folded row whenever any row is folded (or
	// a full merge compacts), none for a format-only Rebuild.
	Rewritten int
	// DictBuilt reports whether the main dictionary was reconstructed.
	DictBuilt bool
}

// deltaSegment is one sealed chunk of the write-optimized delta. Once a
// segment is sealed it is immutable — values, index and rows are never
// touched again — so readers and the merge builder share it freely.
type deltaSegment struct {
	vals  []string          // segment code -> value, insertion order
	index map[string]uint32 // value -> segment code
	rows  []uint32          // per row: segment code
}

// columnVersion is the immutable read state of a column: the read-optimized
// main part plus the chain of sealed delta segments. A published version is
// never mutated; every structural change (seal, merge, rebuild) installs a
// fresh version through the column's atomic pointer.
type columnVersion struct {
	// Read-optimized main part. The code vector is integer-compressed
	// (bit-packed or run-length encoded, whichever is smaller), per the
	// paper's note that domain-encoded code lists are compressed further.
	dict  dict.Dictionary
	codes intcomp.Vector
	nMain int

	// dictGen identifies dict among the dictionaries this column publishes:
	// a version with a new dictionary (fold, RestoreMain) takes the next
	// number, one that shares its predecessor's copies it (see joinTable).
	dictGen uint64

	// counts holds codes' per-value-ID row counts. Versions that share
	// codes share it; a version with a new code vector gets an empty one.
	counts *countTable

	// Sealed delta segments, oldest first. Their rows follow the main part
	// in row-position order; sealedRows caches their total length.
	sealed     []*deltaSegment
	sealedRows int
}

// rows returns the number of rows covered by this version (main + sealed).
func (v *columnVersion) rows() int { return v.nMain + v.sealedRows }

// countTable is a main part's per-value-ID row-count table, built by the
// first CountEq or ScanEq that needs it and kept for the code vector's
// lifetime. No column lock is held while it is built, so appends and merges
// never wait on it; it is derived state and never persisted.
type countTable struct {
	once  sync.Once
	built atomic.Pointer[intcomp.Vector] // nil until built; read by Bytes
}

// count returns the number of main rows with value ID id, building v's
// table on first use.
func (v *columnVersion) count(id uint32) int {
	v.counts.once.Do(func() {
		t := intcomp.Counts(v.codes, v.dict.Len())
		v.counts.built.Store(&t)
	})
	return int((*v.counts.built.Load()).Get(int(id)))
}

// sealedValue returns the value at delta offset off (row - nMain).
func (v *columnVersion) sealedValue(off int) string {
	for _, seg := range v.sealed {
		if off < len(seg.rows) {
			return seg.vals[seg.rows[off]]
		}
		off -= len(seg.rows)
	}
	panic("colstore: sealed delta row out of range")
}

// StringColumn is a dictionary-encoded string column: the main part holds a
// read-only dictionary in one of the registered formats plus a bit-packed
// vector of
// value IDs; the delta part absorbs appends until the next merge.
//
// All exported methods are safe for concurrent use. Reads of the main part
// are lock-free: they load the current columnVersion with one atomic load
// (see the package comment). Value IDs are only reachable through Snapshot.
type StringColumn struct {
	name string

	// version is the column's entire published read state. Load once per
	// operation; every loaded version stays valid (immutable) forever.
	version atomic.Pointer[columnVersion]

	// totalRows counts every appended row (main + sealed + active). It is
	// monotone: rows are never deleted, and merges only move them between
	// parts, so Len is a single atomic load.
	totalRows atomic.Int64

	// appendMu guards the active (unsealed) delta segment below. Critical
	// sections are O(1); the main part is never read or written under it.
	appendMu sync.Mutex
	active   deltaSegment

	// journal, when non-nil, receives appends (under appendMu, so WAL order
	// equals row order) and main-part publications (under mergeMu). Set via
	// Store.SetJournal, read only under the mutex each path already holds.
	journal Journal

	// mergeMu serializes Merge/Rebuild (and their seal step) against each
	// other: there is exactly one version publisher at a time. Readers and
	// writers never touch it.
	mergeMu sync.Mutex

	// joinTable is the last join map Join built with this column as the
	// foreign key (see Snapshot.joinRows); fold drops it.
	joinTable atomic.Pointer[joinTable]

	extracts atomic.Uint64
	locates  atomic.Uint64
}

// ScanStats is a stub that always reads zero: there are no zone maps, and
// every scan reads the whole main vector in one kernel call. It stays only
// because bench/ (tpch.go, svctrace.go) reports colstore.zones_scanned and
// colstore.zones_skipped from it, and goes with those two metrics when the
// benchmark drops them.
type ScanStats struct {
	ZonesScanned uint64
	ZonesSkipped uint64
}

// ScanStats returns the zero ScanStats; see the type.
func (c *StringColumn) ScanStats() ScanStats { return ScanStats{} }

// NewStringColumn returns an empty column whose main part uses the given
// dictionary format.
func NewStringColumn(name string, format dict.Format) *StringColumn {
	c := &StringColumn{name: name, active: deltaSegment{index: make(map[string]uint32)}}
	c.version.Store(&columnVersion{
		dict:   dict.BuildUnchecked(format, nil),
		codes:  intcomp.PackBits(nil),
		counts: new(countTable),
	})
	return c
}

// Name returns the column name.
func (c *StringColumn) Name() string { return c.name }

// Len returns the number of rows (main + delta). One atomic load, no locks.
func (c *StringColumn) Len() int { return int(c.totalRows.Load()) }

// DeltaRows returns the number of rows in the write-optimized delta — the
// sealed segments plus the active segment, i.e. every row not yet folded
// into the main part. The version is loaded before the row counter so the
// difference can never go negative while a merge publishes concurrently.
func (c *StringColumn) DeltaRows() int {
	v := c.version.Load()
	return int(c.totalRows.Load()) - v.nMain
}

// SealedSegments returns the number of sealed (immutable) delta segments in
// the published version — the units a partial merge folds. One atomic load.
func (c *StringColumn) SealedSegments() int {
	return len(c.version.Load().sealed)
}

// DictLen returns the number of distinct values in the main dictionary.
func (c *StringColumn) DictLen() int {
	return c.version.Load().dict.Len()
}

// Format returns the main dictionary's format.
func (c *StringColumn) Format() dict.Format {
	return c.version.Load().dict.Format()
}

// Append adds a value to the write-optimized delta part. It never waits for
// a merge. The value must not contain a NUL byte: the next merge builds a
// dictionary over it, and dict.Build requires NUL-free input.
func (c *StringColumn) Append(value string) {
	c.appendMu.Lock()
	a := &c.active
	code, ok := a.index[value]
	if !ok {
		code = uint32(len(a.vals))
		a.vals = append(a.vals, value)
		a.index[value] = code
	}
	a.rows = append(a.rows, code)
	c.totalRows.Add(1)
	if c.journal != nil {
		c.journal.JournalAppend(c.name, value)
	}
	c.appendMu.Unlock()
}

// Get returns the value at the given row, reading the main part through the
// dictionary (counted as an extract). Main and sealed rows are served
// lock-free from the current version, active rows under the append mutex:
// the boundary between published and active rows only moves at seal time,
// which also holds it, so the version reloaded under it gives a stable
// offset, and a row sealed (or merged) since the first load is served from
// the newer version.
func (c *StringColumn) Get(row int) string {
	v := c.version.Load()
	if row >= v.rows() {
		c.appendMu.Lock()
		defer c.appendMu.Unlock()
		if v = c.version.Load(); row >= v.rows() {
			return c.active.vals[c.active.rows[row-v.rows()]]
		}
	}
	if row < v.nMain {
		c.extracts.Add(1)
		return v.dict.Extract(uint32(v.codes.Get(row)))
	}
	return v.sealedValue(row - v.nMain)
}

// AppendGet appends the value at row to dst (allocation-free main-part read).
func (c *StringColumn) AppendGet(dst []byte, row int) []byte {
	if v := c.version.Load(); row < v.nMain {
		c.extracts.Add(1)
		return v.dict.AppendExtract(dst, uint32(v.codes.Get(row)))
	}
	return append(dst, c.Get(row)...)
}

// Stats returns the cumulative dictionary access counters.
func (c *StringColumn) Stats() AccessStats {
	return AccessStats{Extracts: c.extracts.Load(), Locates: c.locates.Load()}
}

// ResetStats zeroes the counters (start of a workload trace).
func (c *StringColumn) ResetStats() {
	c.extracts.Store(0)
	c.locates.Store(0)
}

// dictValuesOf walks an (immutable) dictionary outside any lock. It bypasses
// the access counters: it is maintenance machinery (merge, sampling), not
// query work.
func dictValuesOf(d dict.Dictionary) []string {
	out := make([]string, d.Len())
	d.ForEach(func(id uint32, value []byte) bool {
		out[id] = string(value)
		return true
	})
	return out
}

// sealActive freezes the active segment into the published version's sealed
// chain and starts a fresh active segment, returning the resulting version.
// The caller must hold mergeMu (seal publishes a version).
func (c *StringColumn) sealActive() *columnVersion {
	c.appendMu.Lock()
	defer c.appendMu.Unlock()
	v := c.version.Load()
	if len(c.active.rows) == 0 {
		return v
	}
	seg := c.active
	c.active = deltaSegment{index: make(map[string]uint32)}
	nv := &columnVersion{
		dict:       v.dict,
		codes:      v.codes,
		nMain:      v.nMain,
		dictGen:    v.dictGen,
		counts:     v.counts,
		sealed:     append(v.sealed[:len(v.sealed):len(v.sealed)], &seg),
		sealedRows: v.sealedRows + len(seg.rows),
	}
	c.version.Store(nv)
	return nv
}

// fold is the one producer of main parts, the reconstruction point where the
// compression manager's format decision is applied for free: it folds the
// oldest k sealed segments of v into the main part, with the dictionary in
// the given format. v must be the current version and the caller must hold
// mergeMu, so v stays current until fold publishes its successor.
//
// Everything is built off to the side against the immutable v — no lock
// held, readers keep scanning v — and published with one atomic store. The
// row boundary (main + sealed) does not move, so no append lock is needed:
// rows appended since the last seal stay in the active segment, and segments
// newer than the folded prefix keep their positions and their segment-local
// codes. A Snapshot taken at any point observes either v or its successor,
// never a mix.
//
// The merged value set and every remap table come from one union
// (unionRemap): the folded segments' values are sorted once, with their
// segment codes attached, and one two-finger pass against the old sorted
// values emits the union, each segment code's new ID and, when new values
// shift old IDs, the old ID -> new ID table — no per-value search.
//
// The dictionary is rebuilt iff the folded segments bring new values, the
// format changes, or compact is set; otherwise it is shared with v. Every
// code below the new boundary is rewritten into one freshly packed vector
// iff any row is folded or compact is set; otherwise (a format-only Rebuild)
// the vector and its count table are shared. A call with nothing to fold and
// nothing to rebuild publishes nothing.
func (c *StringColumn) fold(v *columnVersion, k int, format dict.Format, compact bool) MergeResult {
	folded := v.sealed[:k]
	foldRows := 0
	for _, seg := range folded {
		foldRows += len(seg.rows)
	}
	if foldRows == 0 && !compact && format == v.dict.Format() {
		return MergeResult{}
	}
	oldVals := dictValuesOf(v.dict)
	merged, oldToNew, segToNew := unionRemap(oldVals, folded)
	rewrite := compact || foldRows > 0
	rebuild := compact || len(merged) != len(oldVals) || format != v.dict.Format()

	// Codes in the merged ID space, every row below the new boundary.
	var codes []uint64
	if rewrite {
		codes = make([]uint64, v.nMain, v.nMain+foldRows)
		intcomp.Gather(v.codes, 0, oldToNew, codes)
	}
	for _, seg := range folded {
		for _, dc := range seg.rows {
			codes = append(codes, segToNew[dc])
		}
		segToNew = segToNew[len(seg.vals):]
	}

	nv := &columnVersion{
		dict:    v.dict,
		codes:   v.codes,
		nMain:   v.nMain + foldRows,
		dictGen: v.dictGen,
		counts:  v.counts,
		// Copied, not resliced, so the folded segments become garbage.
		sealed:     append([]*deltaSegment(nil), v.sealed[k:]...),
		sealedRows: v.sealedRows - foldRows,
	}
	if rebuild {
		nv.dict = dict.BuildUnchecked(format, merged) // the expensive part
		nv.dictGen++
	}
	if rewrite {
		nv.codes = intcomp.PackAuto(codes)
		nv.counts = new(countTable)
	}
	c.version.Store(nv)
	if rebuild {
		c.joinTable.Store(nil) // translated the superseded dictionary
	}
	c.journalMainPart(nv.dict, nv.codes, nv.nMain)
	return MergeResult{Folded: foldRows, Rewritten: len(codes), DictBuilt: rebuild}
}

// Merge folds the whole delta part into the main part, rebuilding the
// dictionary in the given format and repacking the code vector (see fold).
// The active segment is sealed first; rows appended during the build keep
// their positions. A merge that would change nothing — empty delta and
// unchanged format — is skipped and reports a zero MergeResult.
func (c *StringColumn) Merge(format dict.Format) MergeResult {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()

	v := c.sealActive()
	if v.sealedRows == 0 && format == v.dict.Format() {
		return MergeResult{}
	}
	return c.fold(v, len(v.sealed), format, true)
}

// MergePartial folds only the oldest k sealed delta segments into the main
// part (see fold), advancing the main/sealed boundary without draining the
// whole delta. The active segment is sealed first and becomes the newest
// sealed segment. The dictionary format is never changed: partial folds are
// the hot-column path where paying a format decision (and the full rebuild
// it may imply) per pass is exactly the cost being avoided; when the folded
// segments bring no new value, the dictionary is shared as well, and the
// fold costs one re-pack of the main code vector.
//
// k <= 0 is a no-op; k is clamped to the number of sealed segments (after
// the seal).
func (c *StringColumn) MergePartial(k int) MergeResult {
	if k <= 0 {
		return MergeResult{}
	}
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()

	v := c.sealActive()
	if k > len(v.sealed) {
		k = len(v.sealed)
	}
	return c.fold(v, k, v.dict.Format(), false)
}

// Rebuild reconstructs the main dictionary in a new format without touching
// the delta or the code vector (see fold; used when reconfiguring an
// already-merged store — code IDs are unchanged because all formats are
// order-preserving). Rebuilding to the current format is a no-op.
func (c *StringColumn) Rebuild(format dict.Format) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	c.fold(c.version.Load(), 0, format, false)
}

// segEntry is a folded segment value and its slot in unionRemap's segToNew.
type segEntry struct {
	val  string
	slot uint32
}

// unionRemap is fold's single-sort union: the sorted union of oldVals and
// the segments' values, segToNew (slot = segment offset + local code, in
// segment order -> new ID) and oldToNew (old ID -> new ID; nil if none move).
func unionRemap(oldVals []string, segs []*deltaSegment) (merged []string, oldToNew, segToNew []uint64) {
	n := 0
	for _, seg := range segs {
		n += len(seg.vals)
	}
	entries := make([]segEntry, 0, n)
	for _, seg := range segs {
		for _, val := range seg.vals {
			entries = append(entries, segEntry{val, uint32(len(entries))})
		}
	}
	slices.SortFunc(entries, func(a, b segEntry) int { return strings.Compare(a.val, b.val) })
	merged, segToNew = make([]string, 0, len(oldVals)+n), make([]uint64, n)
	for i, j := 0, 0; i < len(oldVals) || j < len(entries); {
		id := uint64(len(merged))
		if i < len(oldVals) && (j == len(entries) || oldVals[i] <= entries[j].val) {
			if oldToNew != nil {
				oldToNew[i] = id
			}
			merged = append(merged, oldVals[i])
			i++
		} else {
			if oldToNew == nil && i < len(oldVals) {
				// The first new value below an old one: old IDs shift from i.
				oldToNew = make([]uint64, len(oldVals))
				for k := range i {
					oldToNew[k] = uint64(k)
				}
			}
			merged = append(merged, entries[j].val)
		}
		for ; j < len(entries) && entries[j].val == merged[id]; j++ {
			segToNew[entries[j].slot] = id
		}
	}
	return merged, oldToNew, segToNew
}

// DictBytes returns the main dictionary's memory footprint.
func (c *StringColumn) DictBytes() uint64 {
	return c.version.Load().dict.Bytes()
}

// VectorBytes returns the code vector's memory footprint.
func (c *StringColumn) VectorBytes() uint64 {
	return c.version.Load().codes.Bytes()
}

// bytes estimates the segment's footprint.
func (seg *deltaSegment) bytes() uint64 {
	var b uint64
	for _, v := range seg.vals {
		b += uint64(len(v)) + 16 + 8 // payload + header + map entry
	}
	return b + uint64(len(seg.rows))*4
}

// Bytes returns the column's total footprint: dictionary, code vector,
// delta structures (sealed and active), the cached join map and the count
// table once built.
func (c *StringColumn) Bytes() uint64 {
	v := c.version.Load()
	b := v.dict.Bytes() + v.codes.Bytes()
	if t := v.counts.built.Load(); t != nil {
		b += (*t).Bytes()
	}
	if t := c.joinTable.Load(); t != nil {
		b += 4 * uint64(len(t.rows))
	}
	for _, seg := range v.sealed {
		b += seg.bytes()
	}
	c.appendMu.Lock()
	b += c.active.bytes()
	c.appendMu.Unlock()
	return b
}

func (c *StringColumn) String() string {
	return fmt.Sprintf("%s[%s, %d rows, %d distinct]", c.name, c.Format(), c.Len(), c.DictLen())
}
