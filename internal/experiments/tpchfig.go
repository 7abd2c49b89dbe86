package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/model"
	"strdict/internal/tpch"
)

// TPCHConfig parameterizes the end-to-end evaluation (Section 6).
type TPCHConfig struct {
	ScaleFactor float64   // TPC-H scale factor (paper: 1; default here: 0.02)
	Seed        int64     //
	TraceReps   int       // workload repetitions for the trace (default 100, as in the paper)
	MeasureReps int       // repetitions per configuration measurement
	CValues     []float64 // trade-off sweep (paper: log range 1e-3..10)
	SampleRatio float64   // sampling ratio for the size models
}

// FillDefaults applies the documented defaults.
func (c *TPCHConfig) FillDefaults() {
	if c.ScaleFactor <= 0 {
		c.ScaleFactor = 0.02
	}
	if c.TraceReps <= 0 {
		c.TraceReps = 100
	}
	if c.MeasureReps <= 0 {
		c.MeasureReps = 3
	}
	if len(c.CValues) == 0 {
		c.CValues = LogRange(1e-3, 10, 13)
	}
	if c.SampleRatio <= 0 {
		c.SampleRatio = model.DefaultSampleRatio
	}
}

// LogRange returns n logarithmically spaced values from lo to hi inclusive.
func LogRange(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		frac := float64(i) / float64(n-1)
		out[i] = lo * math.Pow(hi/lo, frac)
	}
	return out
}

// TPCHPoint is one configuration's position in the space/time plane.
type TPCHPoint struct {
	Label    string
	MemBytes uint64
	Runtime  time.Duration
	// Normalized against the fc inline baseline (the HANA default).
	RelMem, RelTime float64
}

// tracedColumn pins one column's post-trace state: a colstore snapshot
// (dictionary, sizes) plus the counter values and sample at trace end, so
// configuration decisions are reproducible while measurement runs keep
// bumping the live counters and rebuilding dictionaries.
type tracedColumn struct {
	col    *colstore.StringColumn
	snap   *colstore.Snapshot
	stats  colstore.AccessStats
	sample *model.Sample
}

// TPCHExperiment holds the loaded store and the workload trace shared by
// Figures 10 and 11.
type TPCHExperiment struct {
	Cfg        TPCHConfig
	Store      *colstore.Store
	LifetimeNs float64
	traced     []tracedColumn
	costs      *model.CostTable
}

// NewTPCHExperiment loads the data, runs the trace, and snapshots
// per-column statistics.
func NewTPCHExperiment(cfg TPCHConfig) *TPCHExperiment {
	cfg.FillDefaults()
	s := tpch.Load(tpch.Config{
		ScaleFactor:   cfg.ScaleFactor,
		Seed:          cfg.Seed,
		InitialFormat: dict.FCInline,
	})
	lifetime := tpch.TraceWorkload(s, cfg.TraceReps)
	e := &TPCHExperiment{
		Cfg:        cfg,
		Store:      s,
		LifetimeNs: float64(lifetime),
		costs:      model.DefaultCostTable(),
	}
	for _, c := range s.StringColumns() {
		snap := c.Snapshot()
		e.traced = append(e.traced, tracedColumn{
			col:    c,
			snap:   snap,
			stats:  snap.Stats(),
			sample: model.TakeSample(snap.DictValues(), cfg.SampleRatio, cfg.Seed),
		})
	}
	return e
}

// statsOf assembles the manager input from the pinned snapshot: the decision
// inputs cannot drift even while measurement runs rebuild the live columns.
func (e *TPCHExperiment) statsOf(tc tracedColumn) core.ColumnStats {
	return core.ColumnStats{
		Name:              tc.snap.Name(),
		NumStrings:        uint64(tc.snap.DictLen()),
		Extracts:          tc.stats.Extracts,
		Locates:           tc.stats.Locates,
		LifetimeNs:        e.LifetimeNs,
		ColumnVectorBytes: tc.snap.VectorBytes(),
		Sample:            tc.sample,
	}
}

// Decide returns the per-column format choices of one dividing-function
// strategy without rebuilding anything; c is clamped to the manager's range.
func (e *TPCHExperiment) Decide(strategy core.Strategy, c float64) map[string]dict.Format {
	c = math.Min(math.Max(c, core.MinC), core.MaxC)
	out := make(map[string]dict.Format, len(e.traced))
	for _, tc := range e.traced {
		out[tc.col.Name()] = core.Select(strategy, c, core.Candidates(e.statsOf(tc), e.costs)).Format
	}
	return out
}

// ApplyDecisions rebuilds each column in its decided format on the pool.
func (e *TPCHExperiment) ApplyDecisions(decisions map[string]dict.Format) {
	colstore.ForEachColumn(e.Store.StringColumns(), func(_ int, c *colstore.StringColumn) {
		c.Rebuild(decisions[c.Name()])
	})
}

// measure runs the workload and records the point.
func (e *TPCHExperiment) measure(label string) TPCHPoint {
	runtime := tpch.RunWorkload(e.Store, e.Cfg.MeasureReps)
	return TPCHPoint{Label: label, MemBytes: e.Store.Bytes(), Runtime: runtime}
}

// normalize fills RelMem/RelTime against the named baseline point.
func normalize(points []TPCHPoint, baseline TPCHPoint) {
	for i := range points {
		points[i].RelMem = float64(points[i].MemBytes) / float64(baseline.MemBytes)
		points[i].RelTime = float64(points[i].Runtime) / float64(baseline.Runtime)
	}
}

// Figure10 measures fixed-format and workload-driven configurations and
// prints the space/time trade-off, normalized against fc inline as in the
// paper. It returns the two point sets for further analysis.
func Figure10(w io.Writer, e *TPCHExperiment) (fixed, driven []TPCHPoint) {
	// column bc is measured even though (as in the paper) it lands outside
	// the plot range on TPC-H's variable-length columns.
	for _, f := range dict.AllFormats() {
		tpch.SetAllFormats(e.Store, f)
		fixed = append(fixed, e.measure(f.String()))
	}
	for _, c := range e.Cfg.CValues {
		e.ApplyDecisions(e.Decide(core.StrategyTilt, c))
		driven = append(driven, e.measure(fmt.Sprintf("c=%.4g", c)))
	}

	var baseline TPCHPoint
	for _, p := range fixed {
		if p.Label == dict.FCInline.String() {
			baseline = p
		}
	}
	normalize(fixed, baseline)
	normalize(driven, baseline)

	fmt.Fprintf(w, "Figure 10: space/time trade-off on TPC-H (SF %g, normalized to fc inline)\n",
		e.Cfg.ScaleFactor)
	fmt.Fprintf(w, "%-18s %12s %12s %14s %12s\n", "configuration", "rel runtime", "rel memory", "runtime", "memory MiB")
	for _, p := range fixed {
		fmt.Fprintf(w, "%-18s %12.3f %12.3f %14v %12.2f\n",
			p.Label, p.RelTime, p.RelMem, p.Runtime.Round(time.Millisecond), float64(p.MemBytes)/(1<<20))
	}
	fmt.Fprintln(w, "workload-driven configurations:")
	for _, p := range driven {
		fmt.Fprintf(w, "%-18s %12.3f %12.3f %14v %12.2f\n",
			p.Label, p.RelTime, p.RelMem, p.Runtime.Round(time.Millisecond), float64(p.MemBytes)/(1<<20))
	}

	printHeadline(w, fixed, driven)
	return fixed, driven
}

// printHeadline reproduces the Section 6.2 headline comparison against the
// most balanced fixed format, fc block: the driven configuration that
// matches its speed should need markedly less memory, and the one matching
// its size should be faster.
func printHeadline(w io.Writer, fixed, driven []TPCHPoint) {
	var fcBlock TPCHPoint
	for _, p := range fixed {
		if p.Label == dict.FCBlock.String() {
			fcBlock = p
		}
	}
	if fcBlock.MemBytes == 0 {
		return
	}
	// 5% tolerance absorbs run-to-run noise of the medians.
	sameSpeedMem := math.Inf(1)
	sameSizeTime := math.Inf(1)
	for _, p := range driven {
		if p.RelTime <= fcBlock.RelTime*1.05 && p.RelMem < sameSpeedMem {
			sameSpeedMem = p.RelMem
		}
		if p.RelMem <= fcBlock.RelMem*1.05 && p.RelTime < sameSizeTime {
			sameSizeTime = p.RelTime
		}
	}
	fmt.Fprintf(w, "\nvs fc block (rel time %.3f, rel mem %.3f):\n", fcBlock.RelTime, fcBlock.RelMem)
	if !math.IsInf(sameSpeedMem, 1) {
		fmt.Fprintf(w, "  at equal speed the adaptive config needs %.0f%% of fc block's memory\n",
			100*sameSpeedMem/fcBlock.RelMem)
	}
	if !math.IsInf(sameSizeTime, 1) {
		fmt.Fprintf(w, "  at equal size the adaptive config runs at %.0f%% of fc block's time\n",
			100*sameSizeTime/fcBlock.RelTime)
	}
}

// Figure11 prints the distribution of selected dictionary formats as a
// function of c.
func Figure11(w io.Writer, e *TPCHExperiment) map[float64]map[dict.Format]int {
	fmt.Fprintln(w, "Figure 11: dictionary formats selected by the compression manager per c")
	out := make(map[float64]map[dict.Format]int)
	for _, c := range e.Cfg.CValues {
		decisions := e.Decide(core.StrategyTilt, c)
		counts := make(map[dict.Format]int)
		for _, f := range decisions {
			counts[f]++
		}
		out[c] = counts
		fmt.Fprintf(w, "c = %-8.4g\n", c)
		formats := make([]dict.Format, 0, len(counts))
		for f := range counts {
			formats = append(formats, f)
		}
		slices.Sort(formats)
		for _, f := range formats {
			fmt.Fprintf(w, "  %-16s %d\n", f, counts[f])
		}
	}
	return out
}
