package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"strdict/internal/core"
)

// DecideWith runs the per-column selection with an explicit strategy.
func (e *TPCHExperiment) DecideWith(strategy core.Strategy, c float64) map[string]core.Candidate {
	out := make(map[string]core.Candidate, len(e.traced))
	for _, tc := range e.traced {
		cands := core.Candidates(e.statsOf(tc), e.costs)
		out[tc.col.Name()] = core.Select(strategy, c, cands)
	}
	return out
}

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
		decisions := e.DecideWith(strat, c)
		for _, tc := range e.traced {
			tc.col.Rebuild(decisions[tc.col.Name()].Format)
		}
		p := e.measure(strat.String())
		points = append(points, p)
		distinct := make(map[string]bool)
		for _, cand := range decisions {
			distinct[cand.Format.String()] = true
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
// first (cmd/tpchbench -figure workload).
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
