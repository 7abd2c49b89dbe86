package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"strdict/internal/core"
	"strdict/internal/dict"
)

// StrategyComparison measures the three dividing-function strategies of
// Section 5.4 end to end at the same trade-off parameter: const ignores
// access frequency, rel shifts the budget for hot columns, tilt slants it.
// The paper develops all three and evaluates tilt; this ablation shows what
// the other two would have done.
func StrategyComparison(w io.Writer, e *TPCHExperiment, c float64) []TPCHPoint {
	fmt.Fprintf(w, "Strategy ablation at c=%g (Section 5.4)\n", c)
	fmt.Fprintf(w, "%-8s %14s %12s %22s\n", "strategy", "runtime", "memory MiB", "distinct formats used")
	var points []TPCHPoint
	for _, strat := range []core.Strategy{core.StrategyConst, core.StrategyRel, core.StrategyTilt} {
		decisions := e.Decide(strat, c)
		e.ApplyDecisions(decisions)
		p := e.measure(strat.String())
		points = append(points, p)
		distinct := make(map[dict.Format]bool)
		for _, f := range decisions {
			distinct[f] = true
		}
		fmt.Fprintf(w, "%-8s %14v %12.2f %22d\n",
			strat, p.Runtime.Round(time.Millisecond), float64(p.MemBytes)/(1<<20), len(distinct))
	}
	return points
}

// TraceAndReport prints the per-column dictionary operation counts of the
// experiment's trace — the "Number of Extracts / Number of Locates" inputs of
// the manager's information flow (the paper's Figure 7), summed over the
// Cfg.TraceReps passes, of which only the first pays the joins' dictionary
// translations. Columns are listed by total dictionary traffic, heaviest
// first (figures -figure workload).
func TraceAndReport(w io.Writer, e *TPCHExperiment) {
	rows := append([]tracedColumn(nil), e.traced...)
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].stats.Extracts+rows[i].stats.Locates > rows[j].stats.Extracts+rows[j].stats.Locates
	})
	fmt.Fprintf(w, "dictionary operations of the %d-pass trace\n", e.Cfg.TraceReps)
	fmt.Fprintf(w, "%-24s %12s %10s %10s %12s %12s\n",
		"column", "extracts", "locates", "distinct", "dict bytes", "vector bytes")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %12d %10d %10d %12d %12d\n", r.snap.Name(), r.stats.Extracts, r.stats.Locates,
			r.snap.DictLen(), r.snap.DictBytes(), r.snap.VectorBytes())
	}
}
