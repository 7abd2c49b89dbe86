// Command bench is the repository's one end-to-end benchmark: four seeded
// workloads over the public functions of service, colstore, core, model,
// dict, intcomp, persist and tpch, every result checked against an oracle,
// every metric printed by name with its unit. See README.md.
//
//	go run ./bench -all -seed 1            every workload, untraced and traced
//	go run ./bench -workload svc-read      one untraced run
//	go run ./bench -workload svc-read -trace 1
//	go run ./bench compare A.json B.json   apply the bounds of BENCHMARK.json
//
// The last line of a single-workload run is one JSON object (correct,
// attempted, failed, metrics) for the driver that gates later changes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// resultsDir is where traces and result files go, relative to the
// repository root the benchmark is run from.
const resultsDir = "bench/results"

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "", "run one workload: tpch-scan, svc-read, svc-mixed or merge-recover")
		all      = flag.Bool("all", false, "run every workload, untraced then traced, and write one result file")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs and operation sequences")
		seconds  = flag.Int("seconds", 15, "length a measured phase is sized for; scales the fixed operation counts")
		trace    = flag.Int("trace", 0, "1: traced run (layered replay, per-layer metrics, trace file)")
		runs     = flag.Int("runs", 1, "-all: untraced runs per workload in the set (medians are reported)")
		out      = flag.String("out", "", "-all: result file (default "+resultsDir+"/set-seed<seed>-<time>.json)")
	)
	flag.Parse()
	if *seconds < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("-seconds and -runs must be at least 1, -trace 0 or 1"))
	}
	switch {
	case *all:
		if err := runAll(*seed, *seconds, *runs, *out); err != nil {
			fail(err)
		}
	case *workload != "":
		res, err := runWorkload(*workload, fullSizes(*seconds), *seed, *seconds, *trace == 1, resultsDir)
		if err != nil {
			fail(err)
		}
		res.print(os.Stdout)
		line, err := json.Marshal(map[string]any{
			"correct":   res.Failed == 0,
			"attempted": res.Attempted,
			"failed":    res.Failed,
			"metrics":   res.Metrics,
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("%s\n", line)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runWorkload runs one workload once, under a scratch directory of its own
// that is removed afterwards.
func runWorkload(name string, sz sizes, seed int64, seconds int, trace bool, outDir string) (*runResult, error) {
	if _, ok := findWorkload(name); !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := os.MkdirTemp("", "strdict-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var res *runResult
	switch {
	case name == "tpch-scan" && trace:
		res, err = traceTPCH(sz, seed, outDir)
	case name == "tpch-scan":
		res, err = runTPCH(sz, seed)
	case name == "merge-recover" && trace:
		res, err = traceMergeRecover(sz, seed, tmp, outDir)
	case name == "merge-recover":
		res, err = runMergeRecover(sz, seed, tmp)
	case trace:
		res, err = traceSvc(name, sz, seed, tmp, outDir)
	default:
		res, err = runSvc(name, sz, seed, seconds, tmp)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

// resultFile is one set of runs: every run made, the medians of the
// untraced runs per workload, and the machine they were made on.
type resultFile struct {
	Env     envInfo                       `json:"env"`
	Seed    int64                         `json:"seed"`
	Seconds int                           `json:"seconds"`
	Sizes   map[string]float64            `json:"sizes"`
	Runs    []*runResult                  `json:"runs"`
	Medians map[string]map[string]float64 `json:"medians"` // workload → end-to-end metric → median over the set
	Notes   []string                      `json:"notes"`
	Claim   any                           `json:"claim"` // always null: this program measures, it claims nothing
}

func runAll(seed int64, seconds, runs int, out string) error {
	sz := fullSizes(seconds)
	rf := resultFile{
		Env: readEnv(), Seed: seed, Seconds: seconds,
		Sizes:   sizesRecord(sz),
		Medians: make(map[string]map[string]float64),
	}
	if rf.Env.NProc < 4 {
		rf.Notes = append(rf.Notes, fmt.Sprintf("nproc is %d (< 4): no scaling conclusion may be drawn from this file", rf.Env.NProc))
	}
	for _, wd := range workloadDefs {
		for _, trace := range []bool{false, true} {
			n := runs
			if trace {
				n = 1
			}
			for i := 0; i < n; i++ {
				res, err := runWorkload(wd.Name, sz, seed, seconds, trace, resultsDir)
				if err != nil {
					return err
				}
				res.print(os.Stdout)
				rf.Runs = append(rf.Runs, res)
			}
		}
		rf.Medians[wd.Name] = make(map[string]float64)
		for _, d := range endToEnd {
			rf.Medians[wd.Name][d.Name] = medianF(rf.values(wd.Name, d.Name))
		}
	}
	if out == "" {
		out = filepath.Join(resultsDir, fmt.Sprintf("set-seed%d-%s.json", seed, time.Now().UTC().Format("20060102T150405Z")))
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, n := range rf.Notes {
		fmt.Println("note:", n)
	}
	fmt.Println("result file:", out)
	return nil
}

// values lists one end-to-end metric over the untraced runs of a workload.
func (rf *resultFile) values(workload, metric string) []float64 {
	var vals []float64
	for _, r := range rf.Runs {
		if r.Workload == workload && !r.Trace {
			vals = append(vals, r.Metrics[metric].Value)
		}
	}
	return vals
}
