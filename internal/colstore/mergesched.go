package colstore

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"strdict/internal/dict"
)

// DefaultMergeInterval is the daemon's timer period when Interval is unset.
const DefaultMergeInterval = 50 * time.Millisecond

// MergeScheduler drives the write-optimized-to-read-optimized merges of a
// store, the moment Section 5 attaches the format decision to: "depending
// on the usage of a table, the write-optimized store ... runs full sooner
// or later and needs to be merged". It watches delta sizes, triggers merges
// when a column's delta exceeds the threshold, and tracks each column's
// observed merge interval — the lifetime(d) that normalizes the manager's
// time dimension.
//
// The scheduler runs in two modes. Cooperative: the ingest path calls Tick
// periodically. Daemon: Start spawns a long-running goroutine with its own
// timer that replaces cooperative Tick calls entirely, and Close shuts it
// down gracefully, draining every remaining delta via Flush. Neither mode
// ever blocks Append: the delta is bounded by merge throughput alone.
//
// A policy layer picks per column between two merge kinds. A full merge
// rebuilds the whole main part and consults the Chooser, so the dictionary
// format may change — the right move when the threshold is crossed on a
// cooling column, where the rebuild is amortized over a long lifetime. A
// partial fold (PartialMerges) folds only the oldest sealed delta segments,
// keeping the format — the right move on a hot column, where paying a full
// dictionary rebuild per pass is exactly the access-latency cost adaptive
// compression tries to avoid. Hotness comes from a per-column append-rate
// estimate (exponentially weighted, updated each pass).
//
// Due columns merge concurrently on the column pool (ForEachColumn), at
// most Parallelism at a time (GOMAXPROCS by default); each column's merge
// follows the seal-build-publish protocol of StringColumn, so queries keep
// running against the old version until the atomic publish. The Chooser is
// invoked from pool workers and must therefore be safe for concurrent use
// (core.Manager is). Tick and Flush are serialized against each other
// internally; bookkeeping is lock-protected and may be read concurrently
// via LifetimeNs and ColumnMergeStats.
type MergeScheduler struct {
	store *Store
	// DeltaRowThreshold triggers a merge once a column's delta holds at
	// least this many rows.
	DeltaRowThreshold int
	// Chooser decides the format at merge time from a snapshot pinning the
	// column's pre-merge state (dictionary, counters, sizes); nil keeps each
	// column's current format (fixed-format operation). It runs on pool
	// workers, so it must be goroutine-safe when Parallelism != 1. Partial
	// folds never consult it: they keep the current format by design.
	Chooser func(snap *Snapshot, lifetimeNs float64) dict.Format
	// Parallelism bounds the worker pool merging due columns; 0 means
	// GOMAXPROCS, 1 restores the serial path.
	Parallelism int

	// PartialMerges enables the partial-fold path: a pass over a hot column
	// (see usePartial) folds only enough oldest sealed segments to bring the
	// delta back under the threshold, instead of draining it with a full
	// rebuild. Flush (and therefore Close) always merges fully. Set before
	// Start.
	PartialMerges bool
	// Interval is the daemon's timer period; 0 means DefaultMergeInterval.
	// Set before Start.
	Interval time.Duration

	// tickMu serializes Tick/Flush invocations so two overlapping calls
	// cannot dispatch the same column to two workers.
	tickMu sync.Mutex

	mu    sync.Mutex // guards stats
	stats map[string]*colMergeState

	now func() time.Time // injectable clock for tests
	// newTicker is the injectable timer source for the daemon loop; nil
	// means time.NewTicker. It returns the tick channel and a stop func.
	newTicker func(d time.Duration) (<-chan time.Time, func())

	// Daemon state. daemonMu serializes Start and Close in full: Close holds
	// it across the daemon wait and the final drain, so Start can never
	// observe a half-closed scheduler.
	daemonMu sync.Mutex
	cancel   context.CancelFunc
	done     chan struct{}
}

// colMergeState is the per-column bookkeeping: full-merge interval (the
// lifetime(d) fed to the Chooser), merge counters by kind, rewrite volumes,
// and the append-rate estimate.
type colMergeState struct {
	lastFull         time.Time     // completion time of the last full merge that folded rows
	lastFullInterval time.Duration // interval between the last two such merges
	full, partial    int           // merges that actually folded rows, by kind
	rowsFolded       uint64        // delta rows moved into main, cumulative
	rowsRewritten    uint64        // rows re-encoded into new code vectors, cumulative

	lastRows   int64     // Len() at the last rate observation
	lastRateAt time.Time // time of the last rate observation
	rateValid  bool      // at least one complete measurement exists
	ratePerSec float64   // EWMA of the append rate; 0 until rateValid
}

// MergeStats summarizes one column's merge history. Full and Partial count
// only merges that actually folded rows — dispatches that found an empty
// delta are skipped and recorded nowhere.
type MergeStats struct {
	// Full and Partial count merges by kind.
	Full, Partial int
	// RowsFolded is the cumulative number of delta rows moved into the main
	// part; RowsRewritten the cumulative number of rows re-encoded into new
	// code vectors (the work a merge actually pays for).
	RowsFolded, RowsRewritten uint64
}

// NewMergeScheduler returns a scheduler over the store's string columns.
func NewMergeScheduler(s *Store, deltaRowThreshold int) *MergeScheduler {
	return &MergeScheduler{
		store:             s,
		DeltaRowThreshold: deltaRowThreshold,
		stats:             make(map[string]*colMergeState),
		now:               time.Now,
	}
}

// stat returns the column's bookkeeping entry, creating it if needed. The
// caller must hold mu.
func (m *MergeScheduler) stat(col string) *colMergeState {
	st, ok := m.stats[col]
	if !ok {
		st = &colMergeState{}
		m.stats[col] = st
	}
	return st
}

// LifetimeNs returns the column's last observed full-merge interval in
// nanoseconds, or the fallback if it has not fully merged twice yet. Only
// merges that actually folded rows count, and partial folds are excluded:
// lifetime(d) normalizes the manager's time dimension by how long a format
// decision lives, and a partial fold neither makes nor invalidates one.
// Partial-fold history is reported separately via ColumnMergeStats.
func (m *MergeScheduler) LifetimeNs(col string, fallback float64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.stats[col]; ok && st.lastFullInterval > 0 {
		return float64(st.lastFullInterval)
	}
	return fallback
}

// ColumnMergeStats returns the column's merge bookkeeping.
func (m *MergeScheduler) ColumnMergeStats(col string) MergeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.stats[col]
	if !ok {
		return MergeStats{}
	}
	return MergeStats{
		Full:          st.full,
		Partial:       st.partial,
		RowsFolded:    st.rowsFolded,
		RowsRewritten: st.rowsRewritten,
	}
}

// Start launches the background merge daemon: a goroutine that runs a merge
// pass every Interval, without any cooperative Tick calls from the ingest
// path. Starting an already-running daemon is a no-op; a Start concurrent
// with Close blocks until the Close has fully finished, then starts fresh.
// The daemon stops when ctx is cancelled or Close is called.
func (m *MergeScheduler) Start(ctx context.Context) {
	m.daemonMu.Lock()
	defer m.daemonMu.Unlock()
	if m.done != nil {
		return
	}
	interval := m.Interval
	if interval <= 0 {
		interval = DefaultMergeInterval
	}
	newTicker := m.newTicker
	if newTicker == nil {
		newTicker = func(d time.Duration) (<-chan time.Time, func()) {
			t := time.NewTicker(d)
			return t.C, t.Stop
		}
	}
	ctx, m.cancel = context.WithCancel(ctx)
	m.done = make(chan struct{})
	go m.run(ctx, m.done, interval, newTicker)
}

// run is the daemon loop.
func (m *MergeScheduler) run(ctx context.Context, done chan struct{}, interval time.Duration, newTicker func(time.Duration) (<-chan time.Time, func())) {
	defer close(done)
	tick, stop := newTicker(interval)
	defer stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			m.pass(false)
		}
	}
}

// Close stops the daemon goroutine (waiting for it to exit) and drains every
// remaining delta via Flush. A scheduler that was never started just
// flushes. The scheduler may be started again afterwards.
//
// Close holds the daemon lock for its entire duration, so a concurrent
// Start cannot interleave with the shutdown: it either runs to completion
// before Close begins, or blocks until Close has stopped the daemon and
// flushed, then starts a fresh daemon. Without this, a Start racing the
// wait could observe the cleared daemon state and spawn a second daemon.
func (m *MergeScheduler) Close() error {
	m.daemonMu.Lock()
	defer m.daemonMu.Unlock()
	if m.cancel != nil {
		m.cancel()
		<-m.done
		m.cancel, m.done = nil, nil
	}
	m.Flush()
	return nil
}

// Tick checks every string column and merges those whose delta (sealed +
// active segments) crossed the threshold, consulting the Chooser for the
// new format. Due columns merge in parallel on the scheduler's worker pool.
// It returns the names of the columns that actually merged, in store order
// — the order Store.StringColumns lists them, regardless of which worker
// ran which merge. A column collected as due but emptied by the time a
// worker claimed it (a racing scheduler or explicit Merge) is skipped and
// not reported.
func (m *MergeScheduler) Tick() []string { return m.pass(false) }

// Flush merges every column that has any delta rows, regardless of the
// threshold (shutdown / checkpoint path). Flush always merges fully — a
// partial fold would leave sealed segments behind, defeating the drain.
func (m *MergeScheduler) Flush() []string { return m.pass(true) }

// pass is one merge pass: Tick's (columns at or past the threshold) or, on
// a drain, Flush's (every column with delta rows, always merged fully).
func (m *MergeScheduler) pass(drain bool) []string {
	m.tickMu.Lock()
	defer m.tickMu.Unlock()
	cols := m.store.StringColumns()
	m.observeRates(cols)
	threshold := m.DeltaRowThreshold
	if drain {
		threshold = 1
	}
	var due []*StringColumn
	for _, c := range cols {
		if c.DeltaRows() >= threshold {
			due = append(due, c)
		}
	}
	return m.mergeColumns(due, drain)
}

// observeRates updates every column's append-rate estimate (EWMA over the
// rows appended since the previous pass). Passes with a non-advancing clock
// (injected clocks in tests) are skipped. Caller holds tickMu.
func (m *MergeScheduler) observeRates(cols []*StringColumn) {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range cols {
		st := m.stat(c.Name())
		rows := int64(c.Len())
		if st.lastRateAt.IsZero() {
			st.lastRows, st.lastRateAt = rows, now
			continue
		}
		elapsed := now.Sub(st.lastRateAt).Seconds()
		if elapsed <= 0 {
			continue
		}
		inst := float64(rows-st.lastRows) / elapsed
		if st.rateValid {
			st.ratePerSec = 0.5*st.ratePerSec + 0.5*inst
		} else {
			st.ratePerSec = inst
			st.rateValid = true
		}
		st.lastRows, st.lastRateAt = rows, now
	}
}

// ForEachColumn calls fn(i, cols[i]) once per column on GOMAXPROCS workers
// and returns when all calls have: the one column pool, under Load's merges,
// store-wide rebuilds and (bounded by Parallelism) the merge scheduler. Calls
// run concurrently; each column serializes its own merges and rebuilds.
func ForEachColumn(cols []*StringColumn, fn func(i int, c *StringColumn)) {
	forEachColumn(cols, 0, fn)
}

// forEachColumn is ForEachColumn on at most workers goroutines (GOMAXPROCS
// when workers <= 0). Workers claim indexes off an atomic cursor, so the
// order calls start in is the slice order and completion order varies.
func forEachColumn(cols []*StringColumn, workers int, fn func(i int, c *StringColumn)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cols))
	if workers <= 1 {
		for i, c := range cols {
			fn(i, c)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1)) - 1; i < len(cols); i = int(cursor.Add(1)) - 1 {
				fn(i, cols[i])
			}
		}()
	}
	wg.Wait()
}

// mergeColumns merges the due columns on the column pool, at most
// Parallelism at a time, and returns the names of those that actually folded
// rows, in store order — the order they were collected, which is also the
// serial path's merge order — whatever order the merges complete in.
func (m *MergeScheduler) mergeColumns(due []*StringColumn, drain bool) []string {
	merged := make([]bool, len(due))
	forEachColumn(due, m.Parallelism, func(i int, c *StringColumn) {
		merged[i] = m.mergeColumn(c, drain)
	})
	var names []string
	for i, c := range due {
		if merged[i] {
			names = append(names, c.Name())
		}
	}
	return names
}

// usePartial decides the merge kind for one due column: partial when the
// column is hot — it appends at least DeltaRowThreshold rows/sec, refilling
// a whole delta every second — and the pass is not a drain; full otherwise.
func (m *MergeScheduler) usePartial(c *StringColumn, drain bool) bool {
	if !m.PartialMerges || drain {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stat(c.Name()).ratePerSec >= float64(m.DeltaRowThreshold)
}

// partialFoldCount picks how many oldest sealed segments a partial fold
// should cover: just enough to bring the delta back under the threshold,
// and always at least one segment so the boundary advances.
func (m *MergeScheduler) partialFoldCount(c *StringColumn) int {
	v := c.version.Load()
	excess := c.DeltaRows() - m.DeltaRowThreshold
	k, folded := 0, 0
	for _, seg := range v.sealed {
		if k >= 1 && folded >= excess {
			break
		}
		k++
		folded += len(seg.rows)
	}
	if k == 0 {
		k = 1 // nothing sealed yet: fold the segment the merge will seal
	}
	return k
}

// mergeColumn runs one column's merge under the policy layer, returning
// whether any rows were folded.
func (m *MergeScheduler) mergeColumn(c *StringColumn, drain bool) bool {
	// Re-check under the claim: the column may have been emptied between
	// collection and this worker claiming it (another scheduler or an
	// explicit Merge). Running the merge anyway would rebuild the whole
	// dictionary over an empty delta and skew the lifetime bookkeeping below.
	if c.DeltaRows() == 0 {
		return false
	}
	name := c.Name()
	// The merge is stamped at dispatch time: the interval bookkeeping then
	// measures merge-to-merge distance independent of build duration (and
	// the injected test clocks only need to advance between passes).
	start := m.now()

	if m.usePartial(c, drain) {
		res := c.MergePartial(m.partialFoldCount(c))
		m.record(name, start, res, false)
		return res.Folded > 0
	}

	format := c.Format()
	if m.Chooser != nil {
		// The Chooser reads a snapshot pinning the pre-merge state: one
		// consistent (dict, codes, counters) view, unaffected by appends or
		// other merges racing this decision.
		snap := c.Snapshot()
		lifetime := m.LifetimeNs(name, float64(time.Minute))
		format = m.Chooser(snap, lifetime)
		snap.Release()
	}
	res := c.Merge(format)
	m.record(name, start, res, true)
	return res.Folded > 0
}

// record books a finished merge. Merges that folded nothing leave the
// bookkeeping untouched: a no-op pass (or a dispatch emptied by a race) must
// not shrink the observed merge interval that normalizes the manager's
// time dimension, and partial folds are counted separately so LifetimeNs
// keeps describing full-merge lifetimes only.
func (m *MergeScheduler) record(name string, now time.Time, res MergeResult, full bool) {
	if res.Folded == 0 {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stat(name)
	st.rowsFolded += uint64(res.Folded)
	st.rowsRewritten += uint64(res.Rewritten)
	if full {
		st.full++
		if !st.lastFull.IsZero() {
			st.lastFullInterval = now.Sub(st.lastFull)
		}
		st.lastFull = now
	} else {
		st.partial++
	}
}
