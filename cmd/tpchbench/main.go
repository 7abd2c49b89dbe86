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
//	-figure daemon       online refresh stream with the background merge
//	                     daemon adapting formats at every merge
//
// Usage:
//
//	tpchbench [-figure both] [-sf 0.02] [-seed N] [-trace 2] [-reps 3] [-sample 0.01]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"strdict/internal/experiments"
)

func main() {
	figure := flag.String("figure", "both", "figure to regenerate: 10, 11, both, strategies, workload or daemon")
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	trace := flag.Int("trace", 2, "workload repetitions for the trace")
	reps := flag.Int("reps", 3, "repetitions per configuration measurement")
	sample := flag.Float64("sample", 0.01, "sampling ratio for the size models")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"daemon figure only: worker pool merging due columns (1 = serial)")
	partial := flag.Bool("partial", false,
		"daemon figure only: fold hot columns partially instead of full merges")
	persistDir := flag.String("persist", "",
		"run the durability report against this directory (WAL + checkpoints + recovery) instead of a figure")
	flag.Parse()

	cfg := experiments.TPCHConfig{
		ScaleFactor:   *sf,
		Seed:          *seed,
		TraceReps:     *trace,
		MeasureReps:   *reps,
		SampleRatio:   *sample,
		Parallelism:   *parallel,
		PartialMerges: *partial,
	}
	if *persistDir != "" {
		if err := experiments.PersistReport(os.Stdout, cfg, *persistDir); err != nil {
			fmt.Fprintf(os.Stderr, "persist report: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *figure == "daemon" {
		// No offline trace: the daemon report is the online protocol.
		experiments.DaemonReport(os.Stdout, cfg, *reps)
		return
	}
	e := experiments.NewTPCHExperiment(cfg)
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
