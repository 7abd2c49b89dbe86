// Command tpchbench regenerates the end-to-end evaluation of Section 6:
//
//	-figure 10   space/time trade-off of fixed-format vs workload-driven
//	             configurations on the string-key TPC-H benchmark, plus the
//	             headline comparison against fc block
//	-figure 11   distribution of the formats the compression manager selects
//	             as a function of the trade-off parameter c
//	-figure both (default) runs both on one shared trace
//	-figure strategies   ablation: const vs rel vs tilt end to end
//	-figure workload     traced per-column dictionary operation counts
//
// Usage:
//
//	tpchbench [-figure both] [-sf 0.02] [-seed N] [-trace 2] [-reps 3] [-sample 0.01]
package main

import (
	"flag"
	"fmt"
	"os"

	"strdict/internal/experiments"
)

func main() {
	figure := flag.String("figure", "both", "figure to regenerate: 10, 11, both, strategies or workload")
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	trace := flag.Int("trace", 2, "workload repetitions for the trace")
	reps := flag.Int("reps", 3, "repetitions per configuration measurement")
	sample := flag.Float64("sample", 0.01, "sampling ratio for the size models")
	flag.Parse()

	e := experiments.NewTPCHExperiment(experiments.TPCHConfig{
		ScaleFactor: *sf,
		Seed:        *seed,
		TraceReps:   *trace,
		MeasureReps: *reps,
		SampleRatio: *sample,
	})
	switch *figure {
	case "10":
		experiments.Figure10(os.Stdout, e)
	case "11":
		experiments.Figure11(os.Stdout, e)
	case "both":
		experiments.Figure10(os.Stdout, e)
		fmt.Println()
		experiments.Figure11(os.Stdout, e)
	case "strategies":
		experiments.StrategyComparison(os.Stdout, e, 0.5)
	case "workload":
		experiments.TraceAndReport(os.Stdout, e)
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *figure)
		os.Exit(2)
	}
}
