package torture

// The compound steps: concurrent interleavings, crash/recover (oracle 4),
// and the injected-fault scenarios (transient retry, permanent read-only
// degradation).

import (
	"path/filepath"
	"strings"
	"sync"
	"time"

	"strdict/internal/persist"
)

func isWALPath(path string) bool { return strings.HasSuffix(path, ".log") }

// isManifestFile and isPartFile match checkpoint artifacts by basename; both
// also match the ".tmp" staging names writeAtomic creates first, which is the
// path a Create fault must land on.
func isManifestFile(path string) bool {
	return strings.HasPrefix(filepath.Base(path), "manifest-")
}

func isPartFile(path string) bool {
	return strings.Contains(filepath.Base(path), ".part")
}

// opConcurrentBurst runs appenders, snapshot readers, partial merges and a
// checkpoint concurrently — the race-detector surface of the harness. All
// randomness is drawn from the seeded rng before the goroutines start, so
// the operation mix is deterministic even though the interleaving is not;
// the oracles only assert properties that hold under every interleaving
// (snapshot self-consistency during the burst, full model equality after
// the quiescent join).
func (h *harness) opConcurrentBurst() error {
	k := 50 + h.rng.Intn(300)
	tb := h.s.Table("t")

	// Pre-draw everything random: per-column values, reader probes, merge
	// targets.
	vals := make([][]string, len(h.cols))
	probes := make([][]string, len(h.cols))
	for i, c := range h.cols {
		vals[i] = c.nextValues(h.rng, k)
		for j := 0; j < 6; j++ {
			p := c.pool[h.rng.Intn(len(c.pool))]
			if j%3 == 2 {
				p += "\x01absent"
			}
			probes[i] = append(probes[i], p)
		}
	}
	mergeCol := h.cols[h.rng.Intn(len(h.cols))].name
	mergeK := 1 + h.rng.Intn(3)
	withCheckpoint := h.rng.Intn(2) == 0

	errs := make(chan error, 2*len(h.cols)+2)
	var wg sync.WaitGroup

	// One appender per column: the engine sees each column's rows in the
	// same order the model records them.
	for i, c := range h.cols {
		wg.Add(1)
		go func(name string, rows []string) {
			defer wg.Done()
			ec := tb.Str(name)
			for _, v := range rows {
				ec.Append(v)
			}
		}(c.name, vals[i])
	}
	// One reader per column: repeated snapshots, kernels vs the Get oracle
	// on each. A snapshot is a single-goroutine handle, so each reader pins
	// its own.
	for i, c := range h.cols {
		wg.Add(1)
		go func(name string, ps []string) {
			defer wg.Done()
			ec := tb.Str(name)
			lo, hi := ps[0], ps[1]
			if lo > hi {
				lo, hi = hi, lo
			}
			for round := 0; round < 4; round++ {
				snap := ec.Snapshot()
				err := kernelsMatchGet(snap, ps, lo, hi)
				snap.Release()
				if err != nil {
					errs <- h.fail("burst: %s %v", name, err)
					return
				}
			}
		}(c.name, probes[i])
	}
	// A merger folding sealed segments mid-burst.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ec := tb.Str(mergeCol)
		for round := 0; round < 2; round++ {
			ec.MergePartial(mergeK)
		}
	}()
	// Optionally a store-wide checkpoint (safe against concurrent string
	// appends and merges; numeric columns are quiescent during the burst).
	if withCheckpoint {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.s.Checkpoint()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}

	// Quiescent again. How much the concurrent merger folded depends on the
	// interleaving, so first normalize that column with a full merge — after
	// this point the engine state is a pure function of the seed again and
	// replays are exact.
	mc := tb.Str(mergeCol)
	mc.Merge(mc.Format())

	// Fold the burst into the model, align the numeric columns, and let the
	// post-step oracles do the full comparison.
	for i, c := range h.cols {
		c.model = append(c.model, vals[i]...)
	}
	h.appendNumericRows(k)
	if err := h.s.Sync(); err != nil {
		return h.fail("burst: sync: %v", err)
	}
	h.logf("step %d: concurrent burst %d rows/col (checkpoint=%v)", h.step, k, withCheckpoint)
	h.raiseFloors()
	return nil
}

// opCrashRecover is oracle 4 as a scheduled step: kill the store, recover,
// and verify the recovered contents sit between the durable floor and the
// full model, with a bit-identical prefix. The model is then truncated to
// the recovered reality so oracles 1-3 keep holding.
func (h *harness) opCrashRecover() error {
	h.logf("step %d: crash + recover", h.step)
	return h.crashAndRecover()
}

func (h *harness) crashAndRecover() error {
	h.ffs.Clear()
	h.s.Crash()
	h.drainEvents()
	if err := h.open(); err != nil {
		return err
	}
	tb := h.s.Table("t")
	if tb == nil {
		return h.fail("recover: table lost")
	}
	for _, c := range h.cols {
		ec := tb.Str(c.name)
		if ec == nil {
			return h.fail("recover: column %s lost", c.name)
		}
		n := ec.Len()
		if n < c.floor || n > len(c.model) {
			return h.fail("recover: %s rows=%d outside [floor %d, appended %d]", c.name, n, c.floor, len(c.model))
		}
		c.model = c.model[:n]
		c.floor = n
		for _, i := range h.sampleRows(n) {
			if got := ec.Get(i); got != c.model[i] {
				return h.fail("recover: %s row %d engine=%q model=%q", c.name, i, got, c.model[i])
			}
		}
	}
	ic, fc := tb.Int("i"), tb.Float("f")
	ni, nf := ic.Len(), fc.Len()
	if ni < h.intFloor || ni > len(h.intModel) || nf > len(h.floatModel) {
		return h.fail("recover: numeric rows=%d/%d outside [floor %d, appended %d/%d]",
			ni, nf, h.intFloor, len(h.intModel), len(h.floatModel))
	}
	h.intModel = h.intModel[:ni]
	h.floatModel = h.floatModel[:nf]
	h.intFloor = ni
	return nil
}

// opIncrementalCheckpoint checks the incremental-checkpoint contract as a
// scheduled step: fresh rows land on every column, a baseline checkpoint
// leaves every column clean, then exactly one string column is dirtied (the
// merge folds its fresh delta and publishes a new main part). The merge's
// own synchronous checkpoint must rewrite exactly that one part, and a
// follow-up explicit checkpoint over the now-clean store must rewrite none
// — every part is re-referenced by its new manifest, not rewritten.
func (h *harness) opIncrementalCheckpoint() error {
	if err := h.opAppendBatch(); err != nil {
		return err
	}
	if err := h.s.Checkpoint(); err != nil {
		return h.fail("incremental checkpoint: baseline: %v", err)
	}
	c := h.cols[h.rng.Intn(len(h.cols))]
	ec := h.s.Table("t").Str(c.name)
	res := ec.Merge(ec.Format())
	if err := h.checkHealthy("incremental-checkpoint merge"); err != nil {
		return err
	}
	merged := h.s.LastCheckpoint()
	if res.Folded > 0 && merged.PartsWritten != 1 {
		return h.fail("incremental checkpoint: merge folded %d rows into %s but its checkpoint rewrote %d parts (reused %d)",
			res.Folded, c.name, merged.PartsWritten, merged.PartsReused)
	}
	if err := h.s.Checkpoint(); err != nil {
		return h.fail("incremental checkpoint: %v", err)
	}
	if clean := h.s.LastCheckpoint(); clean.PartsWritten != 0 {
		return h.fail("incremental checkpoint: clean checkpoint rewrote %d parts (reused %d)",
			clean.PartsWritten, clean.PartsReused)
	}
	h.logf("step %d: incremental checkpoint %s (merge wrote %d, reused %d parts)",
		h.step, c.name, merged.PartsWritten, merged.PartsReused)
	h.raiseFloors()
	return nil
}

// opCrashMidCheckpoint kills a checkpoint in flight — a permanent Create
// fault on either the manifest or the part path — then crashes and recovers.
// The surviving manifest generation predates the failed checkpoint and, after
// earlier incremental checkpoints, typically mixes re-referenced old parts
// with rewritten ones; recovery must still be bit-identical (crashAndRecover
// runs oracle 4, and Run's post-step oracles do the full comparison). The
// orphaned part or manifest .tmp the crash leaves behind is the GC
// quarantine path's problem, exercised by later checkpoints in the run.
func (h *harness) opCrashMidCheckpoint() error {
	h.drainEvents()
	target, match := "manifest", isManifestFile
	if h.rng.Intn(2) == 0 {
		target, match = "part", isPartFile
	}
	// Dirty one column so the checkpoint actually attempts a part write.
	c := h.cols[h.rng.Intn(len(h.cols))]
	ec := h.s.Table("t").Str(c.name)
	ec.Merge(ec.Format())
	if err := h.checkHealthy("crash-mid-checkpoint merge"); err != nil {
		return err
	}
	h.ffs.FailAll(persist.OpCreate, errInjected, match)
	err := h.s.Checkpoint()
	h.logf("step %d: crash mid-checkpoint (%s create faulted, checkpoint err=%v)", h.step, target, err)
	// The manifest is written on every checkpoint, so that fault must
	// surface; a part fault may be dodged when the merge above published
	// nothing (empty column), which a successful checkpoint then skips.
	if target == "manifest" && err == nil {
		return h.fail("crash mid-checkpoint: manifest create faulted but checkpoint succeeded")
	}
	return h.crashAndRecover()
}

// opTransientFault injects a fault burst shorter than the retry budget into
// the WAL path and asserts the store rides it out: appends keep succeeding,
// nothing turns sticky, health returns to Healthy after passing through
// Degraded.
func (h *harness) opTransientFault() error {
	h.drainEvents()
	op := persist.OpSync
	if h.rng.Intn(2) == 0 {
		op = persist.OpWrite
	}
	n := 1 + h.rng.Intn(retryLimit) // <= retryLimit failures: always survivable
	h.ffs.FailNext(op, n, errInjected, isWALPath)
	h.logf("step %d: transient fault %v x%d", h.step, op, n)

	if err := h.opAppendBatch(); err != nil {
		return err
	}
	h.ffs.Clear()
	if err := h.s.Err(); err != nil {
		return h.fail("transient fault turned sticky: %v", err)
	}
	if got := h.s.Health(); got != persist.StateHealthy {
		return h.fail("transient fault: health=%v want healthy", got)
	}
	if got := h.s.DroppedRows(); got != 0 {
		return h.fail("transient fault: %d rows dropped", got)
	}
	// The Degraded-then-Healthy round trip must surface through the hook.
	if err := h.awaitEvent(persist.StateHealthy, 2*time.Second); err != nil {
		return err
	}
	h.raiseFloors()
	return nil
}

// opPermanentFault kills the WAL path outright: the store must degrade to
// an explicit read-only state (hook fired, Err sticky, refused rows
// counted) while reads stay bit-identical to the model. The scenario ends
// with a crash + recovery back to a healthy store.
func (h *harness) opPermanentFault() error {
	h.drainEvents()
	h.ffs.FailAll(persist.OpWrite, errInjected, isWALPath)
	h.ffs.FailAll(persist.OpSync, errInjected, isWALPath)
	h.logf("step %d: permanent WAL fault", h.step)

	// Appends are accepted in memory and mirrored in the model; the WAL
	// refuses them. Floors stay put (raiseFloors checks Err).
	tb := h.s.Table("t")
	k := 20 + h.rng.Intn(100)
	for _, c := range h.cols {
		vals := c.nextValues(h.rng, k)
		ec := tb.Str(c.name)
		for _, v := range vals {
			ec.Append(v)
		}
		c.model = append(c.model, vals...)
	}

	if err := h.s.Err(); err == nil {
		return h.fail("permanent fault: Err still nil")
	}
	if got := h.s.Health(); got != persist.StateReadOnly {
		return h.fail("permanent fault: health=%v want read-only", got)
	}
	if got := h.s.DroppedRows(); got == 0 {
		return h.fail("permanent fault: no rows counted dropped")
	}
	if err := h.awaitEvent(persist.StateReadOnly, 2*time.Second); err != nil {
		return err
	}
	// The read-only store still answers bit-identically to the model.
	if err := h.checkModel(); err != nil {
		return err
	}
	if err := h.checkKernels(); err != nil {
		return err
	}
	// Recover on a healed filesystem: the durable prefix comes back.
	return h.crashAndRecover()
}

// awaitEvent waits for a health event with the given state to come through
// the OnHealth hook (delivery is asynchronous).
func (h *harness) awaitEvent(want persist.HealthState, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case ev := <-h.events:
			if ev.State == want {
				return nil
			}
		case <-time.After(time.Until(deadline)):
			return h.fail("health hook: no %v event within %v", want, timeout)
		}
	}
}
