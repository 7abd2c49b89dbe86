package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/model"
	"strdict/internal/persist"
)

// merge-recover: the paper's loop plus durability, in process on
// persist.Open. Nine string columns, one per datagen corpus. A cycle, on a
// fresh directory: append the initial rows; for every column sample →
// ChooseFormat → Merge → Checkpoint; three rounds that each append 10% new
// values to a third of the columns and fold them the same way (the other
// columns' part files are re-referenced); append an unmerged tail; Sync,
// Crash, Open again and compare every acknowledged row.

const (
	mrTable       = "t"
	mrRounds      = 3
	mrRecoveries  = 5 // crash + reopen repetitions per cycle
	mrSampleRatio = 0.01
	// The access profile and lifetime handed to the manager are constants,
	// so selection depends on the seeded column contents alone.
	mrExtracts   = 1_000_000
	mrLocates    = 100_000
	mrLifetimeNs = 60e9
)

func mrCorpora() []string { return datagen.Names() }

// mrColumn is one column's input: values in row order for each phase.
type mrColumn struct {
	name    string
	initial []string // 90% of the distinct values, each twice
	extra   []string // the other 10%, each twice: appended in round `round`
	tail    []string // repeats, appended last and left unmerged
	round   int
	// distinct[0] and distinct[1] are the sorted dictionary inputs of the
	// initial merge and of the round's merge.
	distinct [2][]string
}

func (c *mrColumn) rows() int { return len(c.initial) + len(c.extra) + len(c.tail) }

type mrInput struct {
	cols      []mrColumn
	userBytes uint64
}

func genMR(sz sizes, seed int64) *mrInput {
	in := &mrInput{}
	for i, name := range mrCorpora() {
		// The corpus is the same for every seed; the seed decides which
		// values load first, the row order and the tail. Selection and build
		// costs depend on the corpus, and a benchmark seed must not move them.
		strs := datagen.Generate(name, sz.mrStrings, int64(i))
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		perm := rng.Perm(len(strs))
		cut := len(strs) * 9 / 10
		col := mrColumn{name: name, round: i%mrRounds + 1}
		twice := func(idx []int) []string {
			out := make([]string, 0, 2*len(idx))
			for _, p := range idx {
				out = append(out, strs[p], strs[p])
			}
			rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
			return out
		}
		col.initial, col.extra = twice(perm[:cut]), twice(perm[cut:])
		for t := 0; t < len(col.initial)/20; t++ {
			col.tail = append(col.tail, col.initial[rng.Intn(len(col.initial))])
		}
		first := make([]string, 0, cut)
		for _, p := range perm[:cut] {
			first = append(first, strs[p])
		}
		sort.Strings(first)
		col.distinct = [2][]string{first, strs}
		for _, part := range [][]string{col.initial, col.extra, col.tail} {
			for _, v := range part {
				in.userBytes += uint64(len(v))
			}
		}
		in.cols = append(in.cols, col)
	}
	return in
}

// mrCycle collects what one cycle measured.
type mrCycle struct {
	merges     lat // per column: choose + merge + checkpoint
	choose     lat
	merge      lat
	checkpoint lat
	recover    lat // each persist.Open after a Crash
	appendNs   time.Duration
	appended   int
	folded     int
	rewritten  int
	sizeErrPct []float64
	ckpt       persist.CheckpointStats // summed over the cycle's checkpoints
	recovery   persist.RecoveryInfo
	store      *persist.Store // the reopened store, still open
}

// chooseFn picks a column's format and returns the size the model predicted
// for the winner's dictionary.
type chooseFn func(stats core.ColumnStats, values []string) (dict.Format, uint64)

// plainChoose is the production path: sample, then Manager.ChooseFormat.
func plainChoose(mgr *core.Manager, seed int64) chooseFn {
	return func(stats core.ColumnStats, values []string) (dict.Format, uint64) {
		stats.Sample = model.TakeSample(values, mrSampleRatio, seed)
		dec := mgr.ChooseFormat(stats)
		return dec.Format, predicted(dec.Candidates, dec.Format, stats.ColumnVectorBytes)
	}
}

func predicted(cands []core.Candidate, f dict.Format, vectorBytes uint64) uint64 {
	for _, c := range cands {
		if c.Format == f {
			return c.SizeBytes - vectorBytes
		}
	}
	return 0
}

// afterMergeFn is called once a column's choose, merge and checkpoint are
// done, outside every timed interval, with the ids of the choose and merge
// spans: the traced run records its child spans and replays the build there.
type afterMergeFn func(f dict.Format, values []string, id, chooseSpan, mergeSpan int32)

// cycle runs one merge-recover cycle in dir. Mismatches against the oracle
// (rows folded, rows recovered, row values) count as failed operations.
func (in *mrInput) cycle(dir string, fs persist.FS, res *runResult, choose chooseFn, tr *tracer, afterMerge afterMergeFn) (*mrCycle, error) {
	opts := persist.Options{FS: fs, DisableCheckpointOnMerge: true, SegmentBytes: 256 << 10}
	ps, err := persist.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	cy := &mrCycle{}
	tb := ps.AddTable(mrTable)
	cols := make([]*colstore.StringColumn, len(in.cols))
	for i := range in.cols {
		cols[i] = tb.AddString(in.cols[i].name, dict.Array)
	}
	appendRows := func(c *colstore.StringColumn, vals []string) {
		start := time.Now()
		for _, v := range vals {
			c.Append(v)
		}
		cy.appendNs += time.Since(start)
		cy.appended += len(vals)
	}
	for i := range in.cols {
		appendRows(cols[i], in.cols[i].initial)
	}
	for round := 0; round <= mrRounds; round++ {
		for i := range in.cols {
			col, c := &in.cols[i], cols[i]
			pending, values := col.initial, col.distinct[0]
			if round > 0 {
				if col.round != round {
					continue
				}
				pending, values = col.extra, col.distinct[1]
				appendRows(c, pending)
			}
			id := int32(round*len(in.cols) + i)
			t0 := time.Now()
			format, pred := choose(core.ColumnStats{
				Name: col.name, NumStrings: uint64(len(values)),
				Extracts: mrExtracts, Locates: mrLocates, LifetimeNs: mrLifetimeNs,
				ColumnVectorBytes: c.VectorBytes(),
			}, values)
			t1 := time.Now()
			mr := c.Merge(format)
			t2 := time.Now()
			err := ps.Checkpoint()
			t3 := time.Now()
			if err != nil {
				ps.Close()
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
			cy.choose.add(t1.Sub(t0))
			cy.merge.add(t2.Sub(t1))
			cy.checkpoint.add(t3.Sub(t2))
			cy.merges.add(t3.Sub(t0))
			cy.folded += mr.Folded
			cy.rewritten += mr.Rewritten
			res.count(mr.Folded == len(pending) && c.DictLen() == len(values) && c.Format() == format)
			actual := float64(c.DictBytes())
			cy.sizeErrPct = append(cy.sizeErrPct, 100*math.Abs(float64(pred)-actual)/actual)
			st := ps.LastCheckpoint()
			cy.ckpt.PartsWritten += st.PartsWritten
			cy.ckpt.PartsReused += st.PartsReused
			cy.ckpt.PartBytes += st.PartBytes
			cy.ckpt.ManifestBytes += st.ManifestBytes
			if afterMerge != nil {
				root := tr.record("merge_cycle", id, -1, t0, t3)
				chooseSpan := tr.record("core.choose", id, root, t0, t1)
				mergeSpan := tr.record("colstore.merge", id, root, t1, t2)
				tr.record("persist.checkpoint", id, root, t2, t3)
				afterMerge(format, values, id, chooseSpan, mergeSpan)
			}
		}
	}
	for i := range in.cols {
		appendRows(cols[i], in.cols[i].tail)
	}
	if err := ps.Sync(); err != nil {
		ps.Close()
		return nil, fmt.Errorf("sync: %w", err)
	}
	// Crash and reopen, several times over: nothing is appended in between,
	// so every Open recovers the same checkpoint and replays the same tail.
	var re *persist.Store
	for r, crashed := 0, ps; r < mrRecoveries; r++ {
		crashed.Crash()
		// Start every recovery from a collected heap: Open allocates the
		// whole store, and whether a collection lands inside it otherwise
		// depends on the garbage the merges before it left.
		runtime.GC()
		start := time.Now()
		re, err = persist.Open(dir, opts)
		end := time.Now()
		if err != nil {
			return nil, fmt.Errorf("reopen after crash: %w", err)
		}
		cy.recover.add(end.Sub(start))
		tr.record("persist.recover", -1, -1, start, end)
		crashed = re
	}
	cy.recovery, cy.store = re.Recovery(), re
	// Every row was acknowledged by Sync before the crash: all must be back.
	for i := range in.cols {
		col := &in.cols[i]
		c, ok := re.Table(mrTable).LookupString(col.name)
		if !ok || c.Len() != col.rows() {
			res.Attempted += col.rows()
			res.Failed += col.rows()
			continue
		}
		snap := c.Snapshot()
		row := 0
		for _, part := range [][]string{col.initial, col.extra, col.tail} {
			for _, want := range part {
				res.count(snap.Get(row) == want)
				row++
			}
		}
		snap.Release()
	}
	return cy, nil
}

func runMergeRecover(sz sizes, seed int64, tmp string) (*runResult, error) {
	res := newResult("merge-recover", seed, false)
	var (
		in     *mrInput
		setups []float64
	)
	for rep := 0; rep < sz.setupReps; rep++ {
		start := time.Now()
		in = genMR(sz, seed)
		setups = append(setups, time.Since(start).Seconds())
	}
	res.setN("setup_s", medianF(setups), len(setups))

	mgr := core.NewManager(core.Options{InitialC: 1, Strategy: core.StrategyTilt})
	var merges, recovers lat
	var rates []float64 // per cycle: column merges per second of merge time
	var last *mrCycle
	var dir string
	for c := 0; c < sz.mrCycles; c++ {
		if last != nil {
			last.store.Close()
			os.RemoveAll(dir)
		}
		var err error
		if dir, err = os.MkdirTemp(tmp, "mr-*"); err != nil {
			return nil, err
		}
		if last, err = in.cycle(dir, nil, res, plainChoose(mgr, seed), nil, nil); err != nil {
			return nil, err
		}
		merges = append(merges, last.merges...)
		recovers = append(recovers, last.recover...)
		rates = append(rates, float64(len(last.merges))/(last.merges.sum()/1e9))
	}
	defer last.store.Close()
	res.Ops["cycles"], res.Ops["merges"], res.Ops["rows_folded"] = sz.mrCycles, len(merges), last.folded*sz.mrCycles
	res.setLatency(merges, recovers, rates, len(merges))

	var enc, raw uint64
	for _, c := range last.store.StringColumns() {
		enc += c.DictBytes()
	}
	for i := range in.cols {
		raw += dict.RawBytes(in.cols[i].distinct[1])
	}
	res.set("dict_bytes_ratio", float64(enc)/float64(raw))
	stored, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	res.set("space_ratio", float64(stored)/float64(in.userBytes))
	in = nil
	res.set("heap_mb", heapMB())
	return res, nil
}

// traceMergeRecover is the traced run: one cycle through the production
// path (the overhead base), then one cycle with the choice taken apart
// into its calls — TakeSample, Candidates (the size models), Select — a
// direct dict.Build of every winner, and a counting filesystem underneath.
func traceMergeRecover(sz sizes, seed int64, tmp, outDir string) (*runResult, error) {
	res := newResult("merge-recover", seed, true)
	in := genMR(sz, seed)
	mgr := core.NewManager(core.Options{InitialC: 1, Strategy: core.StrategyTilt})
	dir, err := os.MkdirTemp(tmp, "mr-plain-*")
	if err != nil {
		return nil, err
	}
	// The production path twice: the first cycle warms the process up, the
	// second is the base the traced cycle's overhead is measured against.
	var plain *mrCycle
	for i := 0; i < 2; i++ {
		os.RemoveAll(dir)
		if plain, err = in.cycle(dir, nil, res, plainChoose(mgr, seed), nil, nil); err != nil {
			return nil, err
		}
		plain.store.Close()
	}

	tr := newTracer()
	fs := newCountFS()
	var sample, estimate, sel, build lat
	var t [4]time.Time // the last choice's boundaries
	costs := model.DefaultCostTable()
	choose := func(stats core.ColumnStats, values []string) (dict.Format, uint64) {
		t[0] = time.Now()
		stats.Sample = model.TakeSample(values, mrSampleRatio, seed)
		t[1] = time.Now()
		cands := core.Candidates(stats, costs)
		t[2] = time.Now()
		won := core.Select(core.StrategyTilt, mgr.C(), cands)
		t[3] = time.Now()
		return won.Format, won.SizeBytes - stats.ColumnVectorBytes
	}
	afterMerge := func(f dict.Format, values []string, id, chooseSpan, mergeSpan int32) {
		sample.add(t[1].Sub(t[0]))
		estimate.add(t[2].Sub(t[1]))
		sel.add(t[3].Sub(t[2]))
		tr.record("model.sample", id, chooseSpan, t[0], t[1])
		tr.record("model.estimate", id, chooseSpan, t[1], t[2])
		tr.record("core.select", id, chooseSpan, t[2], t[3])
		// The winner's build, replayed directly on the dictionary input.
		start := time.Now()
		_, err := dict.Build(f, values)
		end := time.Now()
		res.count(err == nil)
		build.add(end.Sub(start))
		tr.record("dict.build", id, mergeSpan, start, end)
	}
	if dir, err = os.MkdirTemp(tmp, "mr-traced-*"); err != nil {
		return nil, err
	}
	cy, err := in.cycle(dir, fs, res, choose, tr, afterMerge)
	if err != nil {
		return nil, err
	}
	defer cy.store.Close()

	chooseMs, mergeMs, ckptMs := cy.choose.sum()*msPerNs, cy.merge.sum()*msPerNs, cy.checkpoint.sum()*msPerNs
	res.Ops["merges"] = len(cy.merges)
	res.setN("model.sample_ms_total", sample.sum()*msPerNs, len(sample))
	res.setN("model.estimate_ms_total", estimate.sum()*msPerNs, len(estimate))
	res.setN("core.select_us_total", sel.sum()*usPerNs, len(sel))
	res.setN("core.choose_ms_total", chooseMs, len(cy.choose))
	res.setN("dict.build_ms_total", build.sum()*msPerNs, len(build))
	res.setN("colstore.merge_ms_total", mergeMs, len(cy.merge))
	res.setN("persist.checkpoint_ms_total", ckptMs, len(cy.checkpoint))
	res.set("core.choose_share", chooseMs/(chooseMs+mergeMs+ckptMs))
	sort.Float64s(cy.sizeErrPct)
	res.setN("model.size_err_pct_p50", medianF(cy.sizeErrPct), len(cy.sizeErrPct))
	res.set("model.size_err_pct_max", cy.sizeErrPct[len(cy.sizeErrPct)-1])
	res.set("colstore.merges_full", float64(len(cy.merges)))
	res.set("colstore.rows_rewritten_per_row_folded", float64(cy.rewritten)/float64(cy.folded))
	res.set("colstore.append_ns_per_row", float64(cy.appendNs)/float64(cy.appended))

	fs.report(res, in.userBytes)
	res.set("persist.checkpoint_bytes", float64(cy.ckpt.PartBytes+cy.ckpt.ManifestBytes))
	res.set("persist.parts_written", float64(cy.ckpt.PartsWritten))
	res.set("persist.parts_reused", float64(cy.ckpt.PartsReused))
	res.setN("persist.recover_ms", cy.recover.sorted().quantile(0.5)*msPerNs, len(cy.recover))
	res.set("persist.replayed_rows", float64(cy.recovery.ReplayedRows))
	dictTotals(res, []*colstore.Store{cy.store.Store})

	// l0 is one column's choose + merge + checkpoint in the traced cycle;
	// against the production cycle it is the overhead.
	l0, base := cy.merges.sorted().quantile(0.5), plain.merges.sorted().quantile(0.5)
	res.setN("harness.l0_p50_us", l0*usPerNs, len(cy.merges))
	res.set("harness.trace_overhead_pct", 100*(l0-base)/base)

	path, err := tr.write(outDir, res.Workload, seed)
	res.TraceFile = path
	return res, err
}

// report stores the counting filesystem's totals.
func (c *countFS) report(res *runResult, userBytes uint64) {
	c.mu.Lock()
	syncs := c.syncLat.sorted()
	c.mu.Unlock()
	res.set("persist.writes", float64(c.writes.Load()))
	res.set("persist.write_bytes", float64(c.writeBytes.Load()))
	res.set("persist.wal_bytes_per_user_byte", float64(c.walBytes.Load())/float64(userBytes))
	res.setN("persist.syncs", float64(c.syncs.Load()), len(syncs))
	res.set("persist.sync_ms_total", syncs.sum()*msPerNs)
	res.set("persist.sync_p50_us", syncs.quantile(0.5)*usPerNs)
}
