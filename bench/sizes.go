package main

import "math"

// sizes fixes how much data each workload sets up and how many operations
// it measures. Counts, not durations: both sides of a comparison execute
// the identical seeded sequence, so counters repeat exactly. The per-second
// rates were sized on the seed commit (2 cores) so that a measured phase
// lasts about -seconds there; they are frozen here and recorded in every
// result file.
type sizes struct {
	setupReps int // set-ups per untraced run; setup_s is their median

	tpchSF     float64
	tpchPasses int

	svcRows      int // base rows per table (8 tables); below the 64k merge threshold
	svcDistinct  int // distinct base values per table
	svcLoadBatch int // rows per set-up append
	svcBatch     int // rows per measured append
	svcReadOps   int // measured operations per session (4 sessions)
	svcMixedOps  int
	svcWarmOps   int // untimed warm-up operations per session

	mrStrings int // distinct strings per column (9 columns)
	mrCycles  int
}

const (
	tpchPassesPerSec  = 3.3
	svcReadOpsPerSec  = 2000 // per session
	svcMixedOpsPerSec = 950  // per session
	mrCyclesPerSec    = 0.25
)

func fullSizes(seconds int) sizes {
	n := func(perSec float64) int { return int(math.Max(1, math.Round(perSec*float64(seconds)))) }
	return sizes{
		setupReps:    3,
		tpchSF:       0.02,
		tpchPasses:   n(tpchPassesPerSec),
		svcRows:      60000,
		svcDistinct:  20000,
		svcLoadBatch: 5000,
		svcBatch:     25,
		svcReadOps:   n(svcReadOpsPerSec),
		svcMixedOps:  n(svcMixedOpsPerSec),
		svcWarmOps:   200,
		mrStrings:    20000,
		mrCycles:     n(mrCyclesPerSec),
	}
}

// smokeSizes is about 1% of the full benchmark: what `go test ./bench` runs
// so tier-1 exercises every workload without measuring anything.
func smokeSizes() sizes {
	return sizes{
		setupReps:    1,
		tpchSF:       0.001,
		tpchPasses:   2,
		svcRows:      2000,
		svcDistinct:  600,
		svcLoadBatch: 500,
		svcBatch:     50,
		svcReadOps:   60,
		svcMixedOps:  40,
		svcWarmOps:   5,
		mrStrings:    300,
		mrCycles:     1,
	}
}
