package persist

// The journal: the persist side of the colstore.Journal interface. It owns
// the WAL and the checkpoint files for one store directory. Appends become
// WAL records; main-part publications (merges) become a part file plus a
// fresh manifest, after which WAL segments fully covered by the two newest
// manifests are deleted.
//
// Lock order: mu → regMu → wal.mu. The hot append path takes only
// regMu.RLock (name→id) and wal.mu (framing); checkpoints serialize on mu.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"strdict/internal/colstore"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// CheckpointStats summarizes the most recent manifest publication: how many
// part files the checkpoint actually wrote versus re-referenced from the
// previous manifest, and how many bytes hit disk. A store-wide checkpoint
// with one dirty column out of N reports PartsWritten == 1 and
// PartsReused == N-1 — the incremental-checkpoint invariant
// TestIncrementalCheckpointWritesOnlyDirtyColumns holds us to.
type CheckpointStats struct {
	// PartsWritten is the number of p%08d.part files written.
	PartsWritten int
	// PartsReused is the number of columns whose existing part file the new
	// manifest re-references unchanged.
	PartsReused int
	// PartBytes is the total size of the part files written.
	PartBytes uint64
	// ManifestBytes is the size of the manifest itself.
	ManifestBytes uint64
}

// colState is the journal's record of one column.
type colState struct {
	id     uint32
	kind   uint8 // partStr / partInt / partFloat
	table  string
	column string

	// format is the column's current dictionary format (string columns
	// only); updated by checkpoints after a rebuild changes it. Guarded by
	// regMu.
	format dict.Format

	// Checkpoint state: how many leading rows the current part file covers.
	// Guarded by journal.mu.
	persisted uint64
	file      string // part file base name, "" before the first checkpoint

	// Dirtiness: how stale the column's part file is. A checkpoint rewrites
	// a column's part iff one of these is non-zero (or the column has rows
	// but no part yet); clean columns re-reference their existing part in
	// the new manifest. dirtyMerges counts main-part publications since the
	// part was last written (string columns — delta appends ride in the WAL
	// and do not stale the part); dirtyRows counts appends since (numeric
	// columns, whose part snapshots the full value slice). Both are bumped
	// on the hot paths without journal.mu, hence atomics; the checkpoint
	// loads them *before* reading the column and subtracts the loaded value
	// after a successful write, so a concurrent publication can only leave
	// a residual (spurious rewrite later), never a silently clean stale
	// part.
	dirtyMerges atomic.Uint64
	dirtyRows   atomic.Uint64
}

type journal struct {
	dir         string
	w           *wal
	store       *colstore.Store
	disableCkpt bool
	fs          FS
	retry       retryPolicy
	health      *healthTracker

	regMu  sync.RWMutex
	byName map[string]*colState // "table.column"
	byID   map[uint32]*colState
	tables map[string]bool
	nextID uint32

	mu                 sync.Mutex // serializes checkpoint + manifest writes
	manifestSeq        uint64     // next manifest sequence number
	fileSeq            uint64     // next part file sequence number
	prevPersisted      map[uint32]uint64
	prevManifestWalSeq uint64 // active WAL segment when prev manifest was written
	ckptErr            error  // sticky checkpoint failure

	// wrotePart records part files this process wrote. GC uses it to tell a
	// part it superseded itself (safe to delete) from one it knows nothing
	// about (quarantined, never silently dropped). Guarded by mu.
	wrotePart map[string]bool

	// Per-cycle checkpoint accounting (guarded by mu): curStats accumulates
	// between manifests, lastStats is the last published cycle.
	curStats  CheckpointStats
	lastStats CheckpointStats
}

// DDL events. Dedupe by name: SetJournal re-announces schema that recovery
// already registered, and the WAL record was either already written or is
// implied by the loaded manifest.

func (j *journal) JournalAddTable(table string) {
	j.regMu.Lock()
	defer j.regMu.Unlock()
	if j.tables[table] {
		return
	}
	j.tables[table] = true
	j.w.append(encDDLTable(table), false, 0)
}

func (j *journal) addColumn(kind uint8, format dict.Format, table, column string) {
	j.regMu.Lock()
	defer j.regMu.Unlock()
	name := table + "." + column
	if _, ok := j.byName[name]; ok {
		return
	}
	st := &colState{id: j.nextID, kind: kind, format: format, table: table, column: column}
	j.nextID++
	j.byName[name] = st
	j.byID[st.id] = st
	var rec byte
	var wire uint16
	switch kind {
	case partStr:
		rec = recDDLString2
		wire = format.WireID()
	case partInt:
		rec = recDDLInt
	default:
		rec = recDDLFloat
	}
	j.w.append(encDDLColumn(rec, st.id, wire, table, column), false, 0)
}

func (j *journal) JournalAddString(table, column string, format dict.Format) {
	j.addColumn(partStr, format, table, column)
}

func (j *journal) JournalAddNumeric(table, column string, kind colstore.NumericKind) {
	part, _ := numericWire(kind)
	j.addColumn(part, 0, table, column)
}

func (j *journal) lookup(name string) *colState {
	j.regMu.RLock()
	st := j.byName[name]
	j.regMu.RUnlock()
	return st
}

// Append events: one WAL record per row. WAL failures are sticky inside the
// WAL and surface through Sync/Close — the interface has no error return,
// by design: the column has already accepted the row.

func (j *journal) JournalAppend(column string, value string) {
	if st := j.lookup(column); st != nil {
		j.w.append(encAppend(st.id, value), true, st.id)
	}
}

func (j *journal) JournalAppendNumeric(column string, kind colstore.NumericKind, word uint64) {
	if st := j.lookup(column); st != nil {
		st.dirtyRows.Add(1)
		_, rec := numericWire(kind)
		j.w.append(encAppendU64(rec, st.id, word), true, st.id)
	}
}

// JournalMainPart: a merge published a new main part. Log a marker, then —
// unless per-merge checkpoints are disabled — persist the part and write a
// new manifest, which in turn lets covered WAL segments go.
func (j *journal) JournalMainPart(column string, d dict.Dictionary, codes intcomp.Vector, nMain int) {
	st := j.lookup(column)
	if st == nil {
		return
	}
	st.dirtyMerges.Add(1)
	j.w.append(encMerge(st.id, uint64(nMain)), false, 0)
	if j.disableCkpt {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.checkpointStringLocked(st, d, codes, uint64(nMain)); err != nil {
		j.setCkptErrLocked(err)
		return
	}
	if err := j.writeManifestLocked(); err != nil {
		j.setCkptErrLocked(err)
	}
}

func (j *journal) setCkptErrLocked(err error) {
	if j.ckptErr == nil {
		j.ckptErr = err
		j.health.observe(StateReadOnly, "checkpoint", err)
	}
}

// writeDurable is writeAtomicFS under the journal's retry policy. Each
// attempt re-runs the whole tmp-fsync-rename sequence, which is idempotent:
// a failed attempt leaves at worst a stale .tmp that the next attempt
// truncates.
func (j *journal) writeDurable(path string, data []byte) error {
	return j.retry.run(j.health, "checkpoint", func() error {
		return writeAtomicFS(j.fs, path, data)
	})
}

// checkpointStringLocked writes a string column's main part to a fresh part
// file and points the column's state at it. The merge-publication counter is
// loaded before the part bytes are taken and subtracted after the write, so
// a publication racing the write leaves a residual (and a rewrite at the
// next checkpoint) instead of a stale part marked clean. Caller holds mu.
func (j *journal) checkpointStringLocked(st *colState, d dict.Dictionary, codes intcomp.Vector, rows uint64) error {
	dm := st.dirtyMerges.Load()
	data, err := encStringPart(d, codes)
	if err != nil {
		return err
	}
	file, err := j.writePartLocked(data)
	if err != nil {
		return err
	}
	st.persisted = rows
	st.file = file
	if dm != 0 {
		st.dirtyMerges.Add(^(dm - 1))
	}
	j.regMu.Lock()
	st.format = d.Format()
	j.regMu.Unlock()
	return nil
}

// writePartLocked writes one part file atomically and returns its base
// name. Caller holds mu.
func (j *journal) writePartLocked(data []byte) (string, error) {
	seq := j.fileSeq
	path := partPath(j.dir, seq)
	if err := j.writeDurable(path, data); err != nil {
		return "", err
	}
	j.fileSeq++
	name := filepath.Base(path)
	j.wrotePart[name] = true
	j.curStats.PartsWritten++
	j.curStats.PartBytes += uint64(len(data))
	return name, nil
}

// checkpointAll persists every dirty column — string main parts plus full
// numeric slices — then writes a manifest that re-references the existing
// part files of clean columns. String delta rows stay in the WAL. It is
// safe against concurrent string appends and merges; concurrent numeric
// appends must be quiesced (numeric Append is not goroutine-safe anyway).
func (j *journal) checkpointAll() error {
	if err := j.w.sync(); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, name := range j.store.TableNames() {
		t := j.store.Table(name)
		for _, c := range t.StringColumns() {
			st := j.lookup(c.Name())
			if st == nil {
				continue
			}
			d, codes, n := c.MainParts()
			// Dirty iff a merge published since the part was written, the
			// part no longer matches the main length (e.g. restored state),
			// or the column has main rows but no part yet.
			if st.dirtyMerges.Load() == 0 && uint64(n) == st.persisted && (st.file != "" || n == 0) {
				continue
			}
			if err := j.checkpointStringLocked(st, d, codes, uint64(n)); err != nil {
				j.setCkptErrLocked(err)
				return err
			}
		}
		for _, c := range t.NumericColumns() {
			if err := j.checkpointNumericLocked(c); err != nil {
				j.setCkptErrLocked(err)
				return err
			}
		}
	}
	if err := j.writeManifestLocked(); err != nil {
		j.setCkptErrLocked(err)
		return err
	}
	return nil
}

// checkpointNumericLocked writes a numeric column's rows to a fresh part
// file if any arrived since its last one. Caller holds mu.
func (j *journal) checkpointNumericLocked(c colstore.Numeric) error {
	st := j.lookup(c.Name())
	if st == nil {
		return nil
	}
	// Load the append counter before snapshotting the values: rows appended
	// after the load stay dirty and force the next checkpoint to rewrite.
	dr := st.dirtyRows.Load()
	n := c.Len()
	if dr == 0 && uint64(n) == st.persisted && (st.file != "" || n == 0) {
		return nil
	}
	file, err := j.writePartLocked(encNumericPart(c, n))
	if err != nil {
		return err
	}
	st.persisted = uint64(n)
	st.file = file
	if dr != 0 {
		st.dirtyRows.Add(^(dr - 1))
	}
	return nil
}

// writeManifestLocked publishes the current checkpoint state as a new
// manifest, then truncates the WAL and garbage-collects superseded files.
// Caller holds mu.
func (j *journal) writeManifestLocked() error {
	j.regMu.RLock()
	cols := make([]manifestCol, 0, len(j.byID))
	for _, st := range j.byID {
		cols = append(cols, manifestCol{
			id:     st.id,
			kind:   st.kind,
			format: st.format,
			rows:   st.persisted,
			table:  st.table,
			column: st.column,
			file:   st.file,
		})
	}
	j.regMu.RUnlock()
	sort.Slice(cols, func(a, b int) bool { return cols[a].id < cols[b].id })

	// Sample the active WAL segment before writing: every segment sealed
	// before this point has seq < activeSeq, so its DDL is contained in the
	// manifest — the property the recorded walSeq promises.
	activeSeq := j.w.activeSeq()
	seq := j.manifestSeq
	data := encManifest(seq, activeSeq, cols)
	if err := j.writeDurable(manifestPath(j.dir, seq), data); err != nil {
		return err
	}
	j.manifestSeq++

	// Publish the cycle's stats: reused = columns with a part file minus the
	// parts this cycle wrote.
	j.curStats.ManifestBytes = uint64(len(data))
	withFile := 0
	for _, c := range cols {
		if c.file != "" {
			withFile++
		}
	}
	if r := withFile - j.curStats.PartsWritten; r > 0 {
		j.curStats.PartsReused = r
	}
	j.lastStats = j.curStats
	j.curStats = CheckpointStats{}

	// Truncate: a row is durably checkpointed only if both retained
	// manifests cover it, so the floor is the elementwise minimum of this
	// manifest's rows and the previous one's — a corrupt newest manifest
	// must still leave the fallback replayable. The ceiling is the segment
	// that was active when the *older* retained manifest was written: both
	// retained manifests provably contain the schema of anything below it.
	cur := make(map[uint32]uint64, len(cols))
	cover := make(map[uint32]uint64, len(cols))
	for _, c := range cols {
		cur[c.id] = c.rows
		if p := j.prevPersisted[c.id]; p < c.rows {
			cover[c.id] = p
		} else {
			cover[c.id] = c.rows
		}
	}
	j.w.deleteCovered(cover, j.prevManifestWalSeq)
	j.gcLocked()
	j.prevPersisted = cur
	j.prevManifestWalSeq = activeSeq
	return nil
}

// gcLocked collects checkpoint files by manifest reachability. Retention is
// the two newest *readable* manifests — retaining by raw sequence number
// would let one corrupt newest manifest stall GC forever, or worse, count
// toward the two and strand the only readable fallback. Part files are kept
// iff a retained manifest references them; an unreferenced part this process
// wrote (superseded by its own later checkpoints, or left by a failed
// manifest write) or that an older readable manifest still names is deleted,
// while an unknown unreferenced part — the signature of a crash between part
// write and manifest commit — is quarantined under a .orphan suffix, never
// silently dropped. Manifests proven corrupt (read succeeded, decode failed)
// are quarantined too; a failed read aborts the round instead, since a
// transient I/O fault is indistinguishable from corruption. Caller holds mu.
// Errors are ignored: GC retries at every checkpoint.
func (j *journal) gcLocked() {
	names, err := j.fs.ReadDir(j.dir)
	if err != nil {
		return
	}
	type manifest struct {
		seq  uint64
		name string
		cols []manifestCol
	}
	var readable []manifest
	var corrupt []string
	for _, name := range names {
		seq, ok := parseManifestSeq(name)
		if !ok {
			continue
		}
		b, err := j.fs.ReadFile(filepath.Join(j.dir, name))
		if err != nil {
			return // can't tell fault from corruption: skip this round
		}
		_, _, cols, derr := decManifest(b)
		if derr != nil {
			corrupt = append(corrupt, name)
			continue
		}
		readable = append(readable, manifest{seq: seq, name: name, cols: cols})
	}
	for _, name := range corrupt {
		p := filepath.Join(j.dir, name)
		j.fs.Rename(p, p+".quarantine")
	}
	if len(readable) == 0 {
		return
	}
	sort.Slice(readable, func(a, b int) bool { return readable[a].seq > readable[b].seq })
	retain := readable
	if len(retain) > 2 {
		retain = retain[:2]
	}
	referenced := make(map[string]bool)
	for _, m := range retain {
		for _, c := range m.cols {
			if c.file != "" {
				referenced[c.file] = true
			}
		}
	}
	// Parts named only by manifests now rotating out are superseded, not
	// orphaned: deletable even though no process wrote them this lifetime.
	superseded := make(map[string]bool)
	for _, m := range readable[len(retain):] {
		for _, c := range m.cols {
			if c.file != "" && !referenced[c.file] {
				superseded[c.file] = true
			}
		}
		j.fs.Remove(filepath.Join(j.dir, m.name))
	}
	for _, name := range names {
		if _, ok := parsePartSeq(name); ok && !referenced[name] {
			if j.wrotePart[name] || superseded[name] {
				j.fs.Remove(filepath.Join(j.dir, name))
			} else {
				p := filepath.Join(j.dir, name)
				j.fs.Rename(p, p+".orphan")
			}
			delete(j.wrotePart, name)
		}
		if filepath.Ext(name) == ".tmp" {
			j.fs.Remove(filepath.Join(j.dir, name))
		}
	}
}

// stats returns the last published checkpoint cycle's accounting.
func (j *journal) stats() CheckpointStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.lastStats
}

// err returns the sticky WAL or checkpoint failure, if any.
func (j *journal) err() error {
	j.mu.Lock()
	ckpt := j.ckptErr
	j.mu.Unlock()
	if ckpt != nil {
		return ckpt
	}
	j.w.mu.Lock()
	werr := j.w.err
	j.w.mu.Unlock()
	if werr != nil && werr != os.ErrClosed {
		return fmt.Errorf("persist: wal: %w", werr)
	}
	return nil
}
