package tpch

import (
	"sort"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
)

// RunWorkload executes all 22 queries reps times and returns the summed
// per-query median runtimes, following Section 6.2: "the sum of the medians
// of N executions of each of the 22 queries".
func RunWorkload(s *colstore.Store, reps int) time.Duration {
	durations := make([][]float64, 22)
	for r := 0; r < max(reps, 1); r++ {
		for i, q := range Queries() {
			start := time.Now()
			q.Run(s)
			durations[i] = append(durations[i], float64(time.Since(start)))
		}
	}
	var total float64
	for _, d := range durations {
		sort.Float64s(d)
		total += d[len(d)/2]
	}
	return time.Duration(total)
}

// TraceWorkload resets the store's dictionary access counters, runs the
// workload reps times and returns its wall-clock duration — the lifetime
// used to normalize runtimes, per the paper's offline protocol (100
// repetitions minimize the influence of construction time).
func TraceWorkload(s *colstore.Store, reps int) time.Duration {
	s.ResetStats()
	start := time.Now()
	for r := 0; r < reps; r++ {
		RunAll(s)
	}
	return time.Since(start)
}

// Reconfigure asks the manager for a format for every string column of the
// store (as would happen at the columns' next merge) and rebuilds the
// dictionaries accordingly, one column per worker of the column pool. It
// returns the chosen format per column, the paper's "configuration".
func Reconfigure(s *colstore.Store, mgr *core.Manager, lifetimeNs float64, sampleRatio float64, seed int64) map[string]dict.Format {
	cols := s.StringColumns()
	formats := make([]dict.Format, len(cols))
	colstore.ForEachColumn(cols, func(i int, c *colstore.StringColumn) {
		snap := c.Snapshot()
		formats[i] = mgr.ChooseFormat(core.SnapshotStats(snap, lifetimeNs, sampleRatio, seed)).Format
		snap.Release()
		c.Rebuild(formats[i])
	})
	out := make(map[string]dict.Format, len(cols))
	for i, c := range cols {
		out[c.Name()] = formats[i]
	}
	return out
}

// SetAllFormats rebuilds every string column's dictionary in one fixed
// format on the column pool — the fixed-format baselines of Figure 10.
func SetAllFormats(s *colstore.Store, f dict.Format) {
	colstore.ForEachColumn(s.StringColumns(), func(_ int, c *colstore.StringColumn) {
		c.Rebuild(f)
	})
}

// DictionaryBytes sums the dictionary sizes of all string columns.
func DictionaryBytes(s *colstore.Store) uint64 {
	var b uint64
	for _, c := range s.StringColumns() {
		b += c.DictBytes()
	}
	return b
}

// FormatDistribution counts how many string-column dictionaries currently
// use each format (Figure 11's y-axis).
func FormatDistribution(s *colstore.Store) map[dict.Format]int {
	out := make(map[dict.Format]int)
	for _, c := range s.StringColumns() {
		out[c.Format()]++
	}
	return out
}
