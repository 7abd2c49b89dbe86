// Command figures regenerates one entry of the paper's evaluation per run,
// dispatching through the figure table internal/experiments.Figures (an
// unknown -figure lists it), e.g.
//
//	figures -figure 3 [-n 20000] [-seed 1]
//	figures -figure both [-sf 0.02] [-trace 100] [-reps 3] [-sample 0.01] [-cpuprofile file]
//
// Stdout carries the figure alone, so runs compare across hosts; one
// provenance line (Go version, GOOS/GOARCH, CPUs, VCS revision) goes to
// stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"

	"strdict/internal/experiments"
)

func main() {
	figure := flag.String("figure", "", "figure to regenerate (an unknown name lists them)")
	n := flag.Int("n", 20000, "strings per synthetic corpus")
	seed := flag.Int64("seed", 1, "random seed")
	c := flag.Float64("c", 0.5, "trade-off parameter for figure 9 and the strategy ablation")
	sf := flag.Float64("sf", 0.02, "TPC-H scale factor")
	trace := flag.Int("trace", 100, "workload repetitions for the TPC-H trace")
	reps := flag.Int("reps", 3, "repetitions per TPC-H configuration measurement")
	sample := flag.Float64("sample", 0.01, "sampling ratio for the TPC-H size models")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()

	fig, ok := experiments.FigureNamed(*figure)
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q; the table:\n", *figure)
		for _, f := range experiments.Figures {
			fmt.Fprintf(os.Stderr, "  %-11s %s\n", f.Name, f.Doc)
		}
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, provenance())

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures: -cpuprofile:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile() // flushes the profile into f
	}

	fig.Run(os.Stdout, experiments.Params{N: *n, Seed: *seed, C: *c, TPCH: experiments.TPCHConfig{
		ScaleFactor: *sf, Seed: *seed, TraceReps: *trace, MeasureReps: *reps, SampleRatio: *sample,
	}})
}

// provenance names the toolchain and host a run's numbers come from.
func provenance() string {
	s := fmt.Sprintf("figures: %s %s/%s, %d CPUs", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			switch {
			case kv.Key == "vcs.revision":
				s += ", revision " + kv.Value
			case kv.Key == "vcs.modified" && kv.Value == "true":
				s += " (modified)"
			}
		}
	}
	return s
}
