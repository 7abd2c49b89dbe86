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
//	tpchbench [-figure both] [-sf 0.02] [-seed N] [-trace 100] [-reps 3] [-sample 0.01] [-cpuprofile file]
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"

	"strdict/internal/experiments"
)

func main() {
	figure := flag.String("figure", "both", "figure to regenerate: 10, 11, both, strategies or workload")
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "random seed")
	trace := flag.Int("trace", 100, "workload repetitions for the trace")
	reps := flag.Int("reps", 3, "repetitions per configuration measurement")
	sample := flag.Float64("sample", 0.01, "sampling ratio for the size models")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "tpchbench: -cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile() // flushes the profile into f
	}

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
