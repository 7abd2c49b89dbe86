// Package persist adds durability to a colstore: a delta write-ahead log
// for appends, checkpoint files for merged main parts, and crash recovery
// that reconstructs the store bit-identically to its last durable snapshot.
//
// The design follows the paper's delta/main split. Delta rows — the
// write-optimized tail — are cheap to log as they arrive, so they go to a
// group-committed WAL. Main parts — the read-optimized, dictionary-
// compressed prefix — are rewritten wholesale by merges, so each merge
// checkpoints the freshly built dictionary and code vector in their
// compressed form (the checkpoint is roughly as small as the in-memory
// footprint, one of the paper's arguments for compressed dictionaries) and
// the WAL records it covered are discarded. Recovery loads the newest
// intact checkpoint and replays the WAL suffix on top.
package persist

import (
	"fmt"
	"time"

	"strdict/internal/colstore"
)

// Options tunes a persistent store.
type Options struct {
	// FsyncInterval is the group-commit window: appends are acknowledged
	// immediately and fsynced together at this cadence. Zero selects
	// DefaultFsyncInterval; a negative value fsyncs every append (slowest,
	// zero-loss).
	FsyncInterval time.Duration

	// SegmentBytes rotates the WAL once a segment's durable size passes
	// this threshold. Zero selects DefaultSegmentBytes.
	SegmentBytes int64

	// DisableCheckpointOnMerge stops merges from writing checkpoints;
	// only explicit Checkpoint calls persist main parts then. Useful for
	// benchmarks isolating WAL cost.
	DisableCheckpointOnMerge bool

	// FS is the filesystem the WAL and checkpoint paths write through.
	// Nil selects the real OS filesystem; tests and the torture harness
	// install a *FaultFS to inject transient and permanent I/O faults.
	FS FS

	// OnHealth, when non-nil, is invoked on every durability health
	// transition (Healthy → Degraded → ReadOnly and Degraded → Healthy).
	// Calls are delivered by a dedicated goroutine, never under a store
	// lock, so the hook may call back into the store (Err, Health) or
	// block briefly without stalling appends.
	OnHealth func(HealthEvent)

	// RetryLimit bounds how many times a failed WAL or checkpoint I/O
	// operation is retried before the error turns sticky and the store
	// degrades to read-only. Zero selects the default (4); negative
	// disables retries.
	RetryLimit int

	// RetryBackoff is the initial delay between retries, doubling per
	// attempt. Zero selects the default (2ms).
	RetryBackoff time.Duration
}

// Store is a colstore.Store whose contents survive process crashes. All
// colstore functionality is embedded; appends and merges are journaled
// transparently once the store is open.
type Store struct {
	*colstore.Store
	j      *journal
	health *healthTracker
	info   RecoveryInfo
}

// Open recovers (or creates) the persistent store in dir. The returned
// store reflects every row that was durable — fsynced — before the previous
// process stopped; see Recovery for what was found.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OS
	}
	if err := mkdirDurable(fsys, dir); err != nil {
		return nil, err
	}
	r, err := recoverDir(dir, fsys)
	if err != nil {
		return nil, fmt.Errorf("persist: recover %s: %w", dir, err)
	}
	health := newHealthTracker(opts.OnHealth)
	retry := newRetryPolicy(opts.RetryLimit, opts.RetryBackoff)
	w, err := newWAL(walConfig{
		dir:      dir,
		segBytes: opts.SegmentBytes,
		fsync:    opts.FsyncInterval,
		fs:       fsys,
		retry:    retry,
		health:   health,
	}, r.nextSegSeq, r.counts, r.sealed)
	if err != nil {
		health.close()
		return nil, fmt.Errorf("persist: open wal: %w", err)
	}
	j := &journal{
		dir:                dir,
		w:                  w,
		store:              r.store,
		disableCkpt:        opts.DisableCheckpointOnMerge,
		fs:                 fsys,
		retry:              retry,
		health:             health,
		byName:             r.byName,
		byID:               r.byID,
		tables:             r.tables,
		nextID:             r.nextID,
		manifestSeq:        r.nextManifestSeq,
		fileSeq:            r.nextFileSeq,
		prevManifestWalSeq: r.manifestWalSeq,
		wrotePart:          make(map[string]bool),
	}
	// Seed the truncation floor and per-column dirtiness from what recovery
	// loaded: the loaded manifest's covered rows are the previous cover, so
	// one post-recovery checkpoint suffices to truncate, and rows the WAL
	// replayed beyond a column's part mark the column dirty.
	j.prevPersisted = make(map[uint32]uint64, len(r.byID))
	for id, st := range r.byID {
		j.prevPersisted[id] = st.persisted
		if st.kind != partStr {
			if n := r.counts[id]; n > st.persisted {
				st.dirtyRows.Store(n - st.persisted)
			}
		}
	}
	r.store.SetJournal(j)
	return &Store{Store: r.store, j: j, health: health, info: r.info}, nil
}

// Recovery reports what Open found in the directory.
func (s *Store) Recovery() RecoveryInfo { return s.info }

// Sync blocks until every previously appended row is durable.
func (s *Store) Sync() error { return s.j.w.sync() }

// Checkpoint persists every dirty column — merged string main parts and
// full numeric columns — writes a manifest re-referencing the existing part
// files of clean columns, and truncates the WAL segments this makes
// redundant. String delta rows stay in the WAL until a merge folds them.
// Safe against concurrent string appends and merges; quiesce numeric
// appends first (numeric Append is not goroutine-safe to begin with).
func (s *Store) Checkpoint() error { return s.j.checkpointAll() }

// LastCheckpoint reports the most recent checkpoint's accounting: part
// files written versus re-referenced and the bytes that hit disk. Zero
// before the first checkpoint of this process.
func (s *Store) LastCheckpoint() CheckpointStats { return s.j.stats() }

// Err reports a sticky background failure: a WAL write/fsync error or a
// failed merge-time checkpoint. A store with a non-nil Err keeps serving
// reads and in-memory writes but makes no further durability promises.
func (s *Store) Err() error { return s.j.err() }

// Health reports the store's durability state. StateDegraded means a
// transient fault is being retried; StateReadOnly means a fault outlived
// the retry budget — reads and in-memory writes still work, but appends
// are no longer made durable (see DroppedRows) and embedders should stop
// writing. Prefer Options.OnHealth for transition notifications.
func (s *Store) Health() HealthState { return s.health.current() }

// DroppedRows counts append records refused by the WAL after it degraded
// to read-only: rows the in-memory store holds but durability lost.
func (s *Store) DroppedRows() uint64 { return s.j.w.droppedRows() }

// Close flushes and closes the WAL. The store remains readable; further
// appends are no longer journaled durably and Err reports the closed state.
func (s *Store) Close() error {
	err := s.j.w.close()
	s.health.close()
	return err
}

// Crash abandons the store without flushing, keeping on disk only what was
// already durable — a simulated process kill for the crash suite and the
// torture harness. The in-memory store stays readable.
func (s *Store) Crash() {
	s.j.w.crash()
	s.health.close()
}
