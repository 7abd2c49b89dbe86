// Package torture is a deterministic, seed-driven differential harness for
// the whole engine: it generates random schemas and corpora (via
// internal/datagen), drives randomized — and partially concurrent —
// interleavings of Append / Merge / MergePartial / Rebuild / Snapshot reads /
// Checkpoint / crash / recover against a persistent store with a
// fault-injecting filesystem underneath — including incremental checkpoints
// (dirty one column, assert only its part is rewritten) and checkpoints
// killed mid-flight by a fault — and checks six oracles after every step:
//
//  1. engine vs a naive in-memory model store (per-column value slices),
//  2. kernel ScanEq/ScanRange/CountEq vs their scalar oracles with zone
//     pruning on,
//  3. every dictionary format vs every other over the same
//     column,
//  4. a recovered store vs the pre-crash store (durable floor ≤ recovered
//     rows ≤ appended rows, recovered prefix bit-identical),
//  5. the HTTP service layer (internal/service fronting the same store) vs
//     the model and a pinned engine snapshot, including the
//     zero-leaked-snapshots invariant after quiescence,
//  6. a two-column dictionary-translation join read through one
//     colstore.View vs the model, while full merges with a format change
//     publish on both columns.
//
// Every run is reproducible from its seed alone: the same seed replays the
// same schema, corpora, operations and fault plans. On failure the seed is
// part of the error, and `make torture SEED=<n>` replays it.
//
// See docs/oracles/ for each oracle's scope, guardrails and false-positive
// analysis.
package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/persist"
)

// Config parameterizes one torture run.
type Config struct {
	// Seed drives every random decision; the same seed reproduces the same
	// run exactly.
	Seed int64
	// Steps is the number of top-level operations; <= 0 selects 60.
	Steps int
	// Cols is the number of string columns; <= 0 picks 2-4 from the seed.
	Cols int
	// Dir is the store directory (a fresh temp dir per run).
	Dir string
	// Logf, when non-nil, receives a line per operation (testing.T.Logf).
	Logf func(format string, args ...any)
}

// column pairs one engine string column with its model mirror.
type column struct {
	name   string   // bare column name within the table
	pool   []string // corpus the column draws values from
	model  []string // oracle 1: every row the engine accepted
	floor  int      // rows guaranteed durable (crash may not go below)
	poolIx int      // round-robin cursor so appends cycle the pool deterministically
}

// harness is the state of one run.
type harness struct {
	cfg  Config
	rng  *rand.Rand
	ffs  *persist.FaultFS
	s    *persist.Store
	cols []*column

	// Numeric mirrors (oracle 1 for the non-string column kinds).
	intModel   []int64
	floatModel []float64
	intFloor   int

	// Health events observed through the OnHealth hook, drained under mu
	// by the scenario steps.
	events chan persist.HealthEvent

	step int
}

var errInjected = errors.New("torture: injected fault")

const (
	retryLimit = 3 // faults up to this long are transient by construction
	poolSize   = 1200
)

func (h *harness) logf(format string, args ...any) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}

func (h *harness) fail(format string, args ...any) error {
	return fmt.Errorf("torture: seed %d step %d: %s", h.cfg.Seed, h.step, fmt.Sprintf(format, args...))
}

func (h *harness) storeOptions() persist.Options {
	return persist.Options{
		FsyncInterval: -1, // sync-every: durable == accepted, no timing in the oracle
		SegmentBytes:  64 << 10,
		FS:            h.ffs,
		RetryLimit:    retryLimit,
		RetryBackoff:  50 * time.Microsecond,
		OnHealth: func(ev persist.HealthEvent) {
			select {
			case h.events <- ev:
			default:
			}
		},
	}
}

// drainEvents empties the health-event channel and returns what was queued.
func (h *harness) drainEvents() []persist.HealthEvent {
	var out []persist.HealthEvent
	for {
		select {
		case ev := <-h.events:
			out = append(out, ev)
		default:
			return out
		}
	}
}

// Run executes one torture run and returns the first oracle violation (or
// harness error), nil if every check passed.
func Run(cfg Config) error {
	if cfg.Steps <= 0 {
		cfg.Steps = 60
	}
	h := &harness{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		ffs:    &persist.FaultFS{},
		events: make(chan persist.HealthEvent, 64),
	}

	if err := h.open(); err != nil {
		return err
	}
	defer func() {
		if h.s != nil {
			h.ffs.Clear()
			h.s.Close()
		}
	}()
	if err := h.defineSchema(); err != nil {
		return err
	}

	for h.step = 1; h.step <= cfg.Steps; h.step++ {
		var err error
		switch pick := h.rng.Intn(100); {
		case pick < 28:
			err = h.opAppendBatch()
		case pick < 41:
			err = h.opConcurrentBurst()
		case pick < 42:
			err = h.opViewJoin()
		case pick < 50:
			err = h.opFullMerge()
		case pick < 57:
			err = h.opPartialMerge()
		case pick < 58:
			err = h.opRebuild()
		case pick < 64:
			err = h.opCheckpoint()
		case pick < 71:
			err = h.opIncrementalCheckpoint()
		case pick < 78:
			err = h.opCrashRecover()
		case pick < 84:
			err = h.opCrashMidCheckpoint()
		case pick < 90:
			err = h.opTransientFault()
		case pick < 94:
			err = h.opPermanentFault()
		case pick < 97:
			err = h.opCrossFormat()
		default:
			err = h.opServiceQuery()
		}
		if err != nil {
			return err
		}
		// Oracles 1 and 2 hold after every step.
		if err := h.checkModel(); err != nil {
			return err
		}
		if err := h.checkKernels(); err != nil {
			return err
		}
	}
	return nil
}

// open (re)opens the persistent store through the fault filesystem.
func (h *harness) open() error {
	s, err := persist.Open(h.cfg.Dir, h.storeOptions())
	if err != nil {
		return fmt.Errorf("torture: seed %d: open: %w", h.cfg.Seed, err)
	}
	h.s = s
	return nil
}

// defineSchema generates the random schema: 2-4 string columns over random
// datagen corpora with random initial formats, plus one int64 and one
// float64 column.
func (h *harness) defineSchema() error {
	ncols := h.cfg.Cols
	if ncols <= 0 {
		ncols = 2 + h.rng.Intn(3)
	}
	names := datagen.Names()
	formats := dict.AllFormats()
	tb := h.s.AddTable("t")
	for i := 0; i < ncols; i++ {
		corpus := names[h.rng.Intn(len(names))]
		format := formats[h.rng.Intn(len(formats))]
		col := &column{
			name: fmt.Sprintf("c%d", i),
			pool: datagen.Generate(corpus, poolSize, h.cfg.Seed+int64(i)),
		}
		tb.AddString(col.name, format)
		h.cols = append(h.cols, col)
		h.logf("schema: t.%s corpus=%s format=%v pool=%d", col.name, corpus, format, len(col.pool))
	}
	tb.AddInt64("i")
	tb.AddFloat64("f")
	return nil
}

// nextValues draws k values for a column, cycling its pool with a random
// stride so appends repeat values (exercising dictionary dedup) while
// staying deterministic.
func (c *column) nextValues(rng *rand.Rand, k int) []string {
	out := make([]string, k)
	stride := 1 + rng.Intn(7)
	for i := range out {
		out[i] = c.pool[c.poolIx%len(c.pool)]
		c.poolIx += stride
	}
	return out
}

// raiseFloors marks every model row durable — valid only when the WAL has
// no sticky error (sync-every: accepted implies fsynced).
func (h *harness) raiseFloors() {
	if h.s.Err() != nil {
		return
	}
	for _, c := range h.cols {
		c.floor = len(c.model)
	}
	h.intFloor = len(h.intModel)
}

// opAppendBatch appends a random batch to every column.
func (h *harness) opAppendBatch() error {
	k := 1 + h.rng.Intn(400)
	vals := make([][]string, len(h.cols))
	for i, c := range h.cols {
		vals[i] = c.nextValues(h.rng, k)
	}
	h.appendRows(vals)
	h.logf("step %d: append %d rows/col", h.step, k)
	h.raiseFloors()
	return nil
}

// appendRows appends one aligned batch to engine and model: vals[i] to
// string column i, and as many fresh int and float rows (strings, int, and
// float rows move together so table rows stay aligned).
func (h *harness) appendRows(vals [][]string) {
	tb := h.s.Table("t")
	for i, c := range h.cols {
		ec := tb.Str(c.name)
		for _, v := range vals[i] {
			ec.Append(v)
		}
		c.model = append(c.model, vals[i]...)
	}
	h.appendNumericRows(len(vals[0]))
}

// appendNumericRows appends k random rows to the int and float columns and
// their models.
func (h *harness) appendNumericRows(k int) {
	ic, fc := h.s.Table("t").Int("i"), h.s.Table("t").Float("f")
	for i := 0; i < k; i++ {
		iv := h.rng.Int63n(1 << 40)
		fv := float64(h.rng.Intn(1<<20)) / 16
		ic.Append(iv)
		fc.Append(fv)
		h.intModel = append(h.intModel, iv)
		h.floatModel = append(h.floatModel, fv)
	}
}

// opFullMerge fully merges a random column into a random format.
func (h *harness) opFullMerge() error {
	c := h.cols[h.rng.Intn(len(h.cols))]
	formats := dict.AllFormats()
	f := formats[h.rng.Intn(len(formats))]
	res := h.s.Table("t").Str(c.name).Merge(f)
	h.logf("step %d: merge %s -> %v (folded %d)", h.step, c.name, f, res.Folded)
	if err := h.checkHealthy("merge"); err != nil {
		return err
	}
	h.raiseFloors()
	return nil
}

// opPartialMerge folds the oldest sealed segments of a random column,
// keeping its format.
func (h *harness) opPartialMerge() error {
	c := h.cols[h.rng.Intn(len(h.cols))]
	k := 1 + h.rng.Intn(3)
	res := h.s.Table("t").Str(c.name).MergePartial(k)
	h.logf("step %d: partial merge %s k=%d (folded %d)", h.step, c.name, k, res.Folded)
	return h.checkHealthy("partial merge")
}

// opRebuild re-formats a random column's main dictionary in place. Values
// and row order do not move, so the model is untouched; what it exercises is
// the journal: Rebuild publishes a main part while sealed and active delta
// rows are still pending, and a later crash must recover that part plus the
// WAL rows beyond it.
func (h *harness) opRebuild() error {
	c := h.cols[h.rng.Intn(len(h.cols))]
	formats := dict.AllFormats()
	f := formats[h.rng.Intn(len(formats))]
	ec := h.s.Table("t").Str(c.name)
	ec.Rebuild(f)
	h.logf("step %d: rebuild %s -> %v (delta %d rows pending)", h.step, c.name, f, ec.DeltaRows())
	return h.checkHealthy("rebuild")
}

// opCheckpoint persists every column and truncates covered WAL segments.
func (h *harness) opCheckpoint() error {
	if err := h.s.Checkpoint(); err != nil {
		return h.fail("checkpoint: %v", err)
	}
	h.logf("step %d: checkpoint", h.step)
	h.raiseFloors()
	return nil
}

// checkHealthy asserts no background operation left a sticky error while no
// fault was planned.
func (h *harness) checkHealthy(op string) error {
	if err := h.s.Err(); err != nil {
		return h.fail("%s left sticky error without injected fault: %v", op, err)
	}
	return nil
}
