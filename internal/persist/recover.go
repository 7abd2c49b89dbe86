package persist

// Crash recovery. Open reconstructs a store from a persist directory in
// three steps:
//
//  1. Load the newest manifest whose own bytes and every referenced part
//     file verify; fall back to older manifests (two are retained) when the
//     newest is torn or corrupt. The manifest yields the schema and each
//     column's checkpointed prefix.
//  2. Scan the WAL segments in sequence order, frame by frame. A frame that
//     fails its CRC marks a torn tail: the remaining bytes are quarantined
//     to a side file, the segment truncated to its valid prefix, and the
//     scan continues with the next segment (whose header detects any
//     resulting gap).
//  3. Replay: DDL records create missing tables and columns; an append
//     record is applied iff its absolute per-column record index equals the
//     column's current length — records below were already covered by the
//     checkpoint, records above sit beyond a corruption gap and can no
//     longer be placed (counted as lost; the column keeps a consistent
//     prefix).
//
// The result is bit-identical to the snapshot view the pre-crash store
// would have served for every durable row.

import (
	"encoding/binary"
	"path/filepath"
	"sort"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

// RecoveryInfo reports what Open found and did.
type RecoveryInfo struct {
	// ManifestLoaded is false for a fresh (or checkpoint-less) directory.
	ManifestLoaded bool
	// ManifestSeq is the sequence of the manifest actually loaded.
	ManifestSeq uint64
	// ManifestFallbacks counts newer manifests rejected as torn or corrupt
	// (including those whose part files failed verification).
	ManifestFallbacks int
	// CheckpointRows is the total row count restored from part files.
	CheckpointRows uint64
	// Segments is the number of WAL segment files scanned.
	Segments int
	// ReplayedRows counts append records applied from the WAL.
	ReplayedRows uint64
	// SkippedRows counts append records already covered by the checkpoint.
	SkippedRows uint64
	// LostRows counts rows detected as unrecoverable: they sat beyond a
	// corrupt region, so applying later records would misplace them.
	LostRows uint64
	// TornBytes is the total size of quarantined byte ranges.
	TornBytes int64
	// Quarantined lists the side files holding unreadable bytes.
	Quarantined []string
}

// recovered is everything Open needs to resume writing after replay.
type recovered struct {
	store *colstore.Store
	info  RecoveryInfo
	fs    FS // every read/quarantine goes through the seam

	// Registry state for the journal.
	byName map[string]*colState
	byID   map[uint32]*colState
	tables map[string]bool
	nextID uint32

	// WAL continuation state.
	counts     map[uint32]uint64 // next record index per column == col.Len()
	sealed     []segmentInfo
	nextSegSeq uint64

	nextManifestSeq uint64
	nextFileSeq     uint64

	// manifestWalSeq is the loaded manifest's recorded active WAL segment
	// (zero for v1/v2 manifests and fresh stores). It seeds the journal's
	// truncation ceiling so a single post-recovery checkpoint can truncate,
	// instead of resetting the previous-cover state to zero.
	manifestWalSeq uint64
}

// columns indexes live colstore columns by journal id during replay.
type liveCols struct {
	str   map[uint32]*colstore.StringColumn
	num   map[uint32]colstore.Numeric
	table map[string]*colstore.Table
}

func (lc *liveCols) colLen(st *colState) uint64 {
	if c := lc.str[st.id]; c != nil {
		return uint64(c.Len())
	}
	if c := lc.num[st.id]; c != nil {
		return uint64(c.Len())
	}
	return 0
}

// recoverDir rebuilds the store and journal state from dir. All reads go
// through fsys, so the fault suite can inject I/O errors at any point of
// Open: a failed manifest or part read falls back manifest-by-manifest like
// corruption does, while a failed WAL read aborts Open — replaying around an
// unreadable segment would silently lose acknowledged rows.
func recoverDir(dir string, fsys FS) (*recovered, error) {
	r := &recovered{
		fs:     fsys,
		byName: make(map[string]*colState),
		byID:   make(map[uint32]*colState),
		tables: make(map[string]bool),
		counts: make(map[uint32]uint64),
	}
	lc := &liveCols{
		str:   make(map[uint32]*colstore.StringColumn),
		num:   make(map[uint32]colstore.Numeric),
		table: make(map[string]*colstore.Table),
	}

	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var manifests []uint64
	maxPart := int64(-1)
	for _, name := range names {
		if seq, ok := parseManifestSeq(name); ok {
			manifests = append(manifests, seq)
		}
		if seq, ok := parsePartSeq(name); ok && int64(seq) > maxPart {
			maxPart = int64(seq)
		}
	}
	sort.Slice(manifests, func(a, b int) bool { return manifests[a] > manifests[b] })
	r.nextFileSeq = uint64(maxPart + 1)
	if len(manifests) > 0 {
		r.nextManifestSeq = manifests[0] + 1
	}

	// Step 1: newest loadable manifest wins.
	for _, seq := range manifests {
		store, err := r.tryLoadManifest(dir, seq, lc)
		if err != nil {
			r.info.ManifestFallbacks++
			continue
		}
		r.store = store
		r.info.ManifestLoaded = true
		r.info.ManifestSeq = seq
		break
	}
	if r.store == nil {
		// Fresh directory, or every manifest unreadable: start empty and
		// let the WAL rebuild what it can.
		r.store = colstore.NewStore()
		r.reset(lc, 0)
	}

	// Steps 2+3: scan and replay the WAL.
	segs, err := listWALSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	r.info.Segments = len(segs)
	if err := r.replay(dir, segs, lc); err != nil {
		return nil, err
	}
	if len(segs) > 0 {
		r.nextSegSeq = segs[len(segs)-1].seq + 1
	}

	// The new active segment continues each column at its true length:
	// record index == row index for everything appended from here on.
	clear(r.counts)
	for id, st := range r.byID {
		if n := lc.colLen(st); n > 0 {
			r.counts[id] = n
		}
	}
	return r, nil
}

// reset discards whatever a manifest load built so far, for the next
// attempt or the empty start.
func (r *recovered) reset(lc *liveCols, manifestWalSeq uint64) {
	clear(r.byName)
	clear(r.byID)
	clear(r.tables)
	clear(lc.str)
	clear(lc.num)
	clear(lc.table)
	r.nextID = 0
	r.info.CheckpointRows = 0
	r.manifestWalSeq = manifestWalSeq
}

// tryLoadManifest builds a store from one manifest, failing if the manifest
// or any referenced part file does not verify. On failure the partially
// built state is discarded by the caller re-running with fresh maps.
func (r *recovered) tryLoadManifest(dir string, seq uint64, lc *liveCols) (*colstore.Store, error) {
	b, err := r.fs.ReadFile(manifestPath(dir, seq))
	if err != nil {
		return nil, err
	}
	mseq, walSeq, cols, err := decManifest(b)
	if err != nil {
		return nil, err
	}
	if mseq != seq {
		return nil, ErrCorrupt
	}

	store := colstore.NewStore()
	r.reset(lc, walSeq)

	for _, mc := range cols {
		name := mc.table + "." + mc.column
		if _, dup := r.byID[mc.id]; dup {
			return nil, ErrCorrupt
		}
		if _, dup := r.byName[name]; dup {
			return nil, ErrCorrupt
		}
		t := lc.table[mc.table]
		if t == nil {
			t = store.AddTable(mc.table)
			lc.table[mc.table] = t
			r.tables[mc.table] = true
		}
		st := &colState{
			id: mc.id, kind: mc.kind, format: mc.format,
			table: mc.table, column: mc.column,
			persisted: mc.rows, file: mc.file,
		}
		var body []byte
		var rows uint64
		if mc.file != "" {
			pb, err := r.fs.ReadFile(filepath.Join(dir, mc.file))
			if err != nil {
				return nil, err
			}
			var kind uint8
			kind, rows, body, err = decPart(pb)
			if err != nil {
				return nil, err
			}
			if kind != mc.kind || rows != mc.rows {
				return nil, ErrCorrupt
			}
		} else if mc.rows != 0 {
			return nil, ErrCorrupt
		}
		switch mc.kind {
		case partStr:
			c := t.AddString(mc.column, mc.format)
			if body != nil {
				d, codes, err := decStringPart(body, rows)
				if err != nil {
					return nil, err
				}
				c.RestoreMain(d, codes)
			}
			lc.str[mc.id] = c
		case partInt, partFloat:
			c := addNumeric(t, mc.kind, mc.column)
			if body != nil {
				if err := decNumericPart(c, body, rows); err != nil {
					return nil, err
				}
			}
			lc.num[mc.id] = c
		default:
			return nil, ErrCorrupt
		}
		r.byName[name] = st
		r.byID[mc.id] = st
		if mc.id >= r.nextID {
			r.nextID = mc.id + 1
		}
		r.info.CheckpointRows += mc.rows
	}
	return store, nil
}

// quarantine moves the unreadable suffix of a segment to a side file and
// truncates the segment to its valid prefix.
func (r *recovered) quarantine(path string, b []byte, off int) {
	q := path + ".quarantine"
	if err := r.fs.WriteFile(q, b[off:]); err == nil {
		r.info.Quarantined = append(r.info.Quarantined, q)
	}
	r.fs.Truncate(path, int64(off))
	r.info.TornBytes += int64(len(b) - off)
}

// replay scans the segments in order, applying records to the store. A
// segment read error fails recovery outright — unlike a corrupt frame, an
// I/O fault says nothing about where the valid prefix ends, so replaying
// around it could misplace every later row.
func (r *recovered) replay(dir string, segs []segmentInfo, lc *liveCols) error {
	cnt := make(map[uint32]uint64) // running absolute record index per column
	for i := range segs {
		seg := &segs[i]
		b, err := r.fs.ReadFile(seg.path)
		if err != nil {
			return err
		}
		off := len(walMagic) + 1
		if len(b) < off || string(b[:4]) != walMagic || b[4] != walVersion {
			// Unreadable preamble: the whole segment is suspect.
			r.quarantine(seg.path, b, 0)
			r.endSegment(seg, cnt)
			continue
		}
		first := true
		for off < len(b) {
			payload, next, err := readFrame(b, off)
			if err != nil {
				r.quarantine(seg.path, b, off)
				break
			}
			off = next
			if len(payload) == 0 {
				r.quarantine(seg.path, b, off)
				break
			}
			if first {
				if payload[0] != recHeader {
					r.quarantine(seg.path, b, off)
					break
				}
				seq, counts, err := decHeader(payload)
				if err != nil || seq != seg.seq {
					r.quarantine(seg.path, b, off)
					break
				}
				// Adopt the header's absolute positions. A forward jump
				// past our running count means records vanished with a
				// corrupt predecessor — those rows are gone. (The first
				// segment legitimately starts past zero: its predecessors
				// were truncated away after checkpointing.)
				for id, n := range counts {
					if i > 0 && n > cnt[id] {
						r.info.LostRows += n - cnt[id]
					}
					cnt[id] = n
				}
				for id := range cnt {
					if _, ok := counts[id]; !ok {
						// Absent from the header means zero records so
						// far... but our counter disagrees: only possible
						// when the column's rows were all lost with a
						// corrupt segment. Positions restart at zero.
						if i > 0 {
							r.info.LostRows += cnt[id]
						}
						delete(cnt, id)
					}
				}
				first = false
				continue
			}
			r.apply(payload, cnt, lc)
		}
		r.endSegment(seg, cnt)
	}
	return nil
}

// endSegment records a scanned segment's end counts so the journal can
// later truncate it once a checkpoint covers them.
func (r *recovered) endSegment(seg *segmentInfo, cnt map[uint32]uint64) {
	end := make(map[uint32]uint64, len(cnt))
	for id, n := range cnt {
		end[id] = n
	}
	seg.end = end
	r.sealed = append(r.sealed, *seg)
}

// apply replays one record. Unknown kinds are ignored (forward
// compatibility within a version is not attempted — the version byte
// guards that — but a single bad record must not sink the segment).
func (r *recovered) apply(p []byte, cnt map[uint32]uint64, lc *liveCols) {
	switch p[0] {
	case recDDLTable:
		name := string(p[1:])
		if !r.tables[name] {
			r.tables[name] = true
			lc.table[name] = r.store.AddTable(name)
		}
	case recDDLString, recDDLString2, recDDLInt, recDDLFloat:
		r.applyDDLColumn(p, lc)
	case recAppend:
		if len(p) < 5 {
			return
		}
		id := binary.LittleEndian.Uint32(p[1:])
		if c := lc.str[id]; c != nil && r.applyAt(id, cnt, uint64(c.Len())) {
			c.Append(string(p[5:]))
		}
	case recAppendInt, recAppendFloat:
		if len(p) != 13 {
			return
		}
		id := binary.LittleEndian.Uint32(p[1:])
		c := lc.num[id]
		if c == nil {
			return
		}
		// A record of the other numeric kind is not this column's row.
		if _, rec := numericWire(c.Kind()); rec == p[0] && r.applyAt(id, cnt, uint64(c.Len())) {
			c.AppendWord(binary.LittleEndian.Uint64(p[5:]))
		}
	case recSeal, recMerge, recHeader:
		// Seal ends a segment; merge markers are bookkeeping only (the
		// part files carry the data); a stray header is ignored.
	}
}

// applyAt decides one append record's fate by comparing its absolute index
// with the column's length, and advances the counter either way.
func (r *recovered) applyAt(id uint32, cnt map[uint32]uint64, colLen uint64) bool {
	idx := cnt[id]
	cnt[id] = idx + 1
	switch {
	case idx == colLen:
		r.info.ReplayedRows++
		return true
	case idx < colLen:
		r.info.SkippedRows++
		return false
	default:
		r.info.LostRows++
		return false
	}
}

func (r *recovered) applyDDLColumn(p []byte, lc *liveCols) {
	id, format, table, column, err := decDDLColumn(p)
	if err != nil {
		return
	}
	name := table + "." + column
	if _, ok := r.byName[name]; ok {
		return
	}
	if _, ok := r.byID[id]; ok {
		return // id collision with a manifest column: trust the manifest
	}
	t := lc.table[table]
	if t == nil {
		t = r.store.AddTable(table)
		lc.table[table] = t
		r.tables[table] = true
	}
	var kind uint8
	var f dict.Format
	switch p[0] {
	case recDDLString, recDDLString2:
		// The record carries the registry wire ID. An ID this build does not
		// know (written by a newer or differently configured build) cannot be
		// decoded into a column; skip the record rather than guess a format —
		// a single bad record must not sink the segment.
		var ok bool
		if f, ok = dict.FormatByWireID(format); !ok {
			return
		}
		kind = partStr
		lc.str[id] = t.AddString(column, f)
	default:
		kind = partInt
		if p[0] == recDDLFloat {
			kind = partFloat
		}
		lc.num[id] = addNumeric(t, kind, column)
	}
	st := &colState{id: id, kind: kind, format: f, table: table, column: column}
	r.byName[name] = st
	r.byID[id] = st
	if id >= r.nextID {
		r.nextID = id + 1
	}
}
