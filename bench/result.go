package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run of one workload reports.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples is the number of measurements behind each timing metric.
	Samples map[string]int `json:"samples"`
	// Ops counts the operations executed, by kind.
	Ops map[string]int `json:"ops"`
	// TailPercentile is the percentile op_tail_ms reports on this run.
	TailPercentile float64 `json:"tail_percentile,omitempty"`
	// SeqHash digests the seeded operation sequence.
	SeqHash   string `json:"seq_hash,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
}

func newResult(workload string, seed int64, trace bool) *runResult {
	r := &runResult{
		Workload: workload, Seed: seed, Trace: trace,
		Metrics: make(map[string]metricValue),
		Samples: make(map[string]int),
		Ops:     make(map[string]int),
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		r.Metrics[d.Name] = metricValue{Unit: d.Unit}
	}
	return r
}

// set stores a metric of the run's table; a name outside it is a bug.
func (r *runResult) set(name string, v float64) {
	m, ok := r.Metrics[name]
	if !ok {
		panic("bench: metric " + name + " is not defined for this kind of run")
	}
	m.Value = v
	r.Metrics[name] = m
}

// setN stores a timing metric together with its sample count.
func (r *runResult) setN(name string, v float64, samples int) {
	r.set(name, v)
	r.Samples[name] = samples
}

func (r *runResult) count(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// setLatency fills op_p50_ms, op_tail_ms, op2_p50_ms and ops_per_s. The
// measured phase is cut into slices of equal work (`units` work units in
// all) and ops_per_s is the interquartile mean of the slices' rates: a stall
// of the machine that hits a few slices does not move it, and it does not
// jump when slices fall into two groups (a merge running or not).
func (r *runResult) setLatency(op, op2 lat, rates []float64, units int) {
	op, op2 = op.sorted(), op2.sorted()
	wd, _ := findWorkload(r.Workload)
	r.TailPercentile = min(wd.Tail, pickTail(len(op)))
	r.setN("op_p50_ms", op.quantile(0.5)*msPerNs, len(op))
	r.setN("op_tail_ms", op.quantile(r.TailPercentile)*msPerNs, len(op))
	r.setN("op2_p50_ms", op2.quantile(0.5)*msPerNs, len(op2))
	r.setN("ops_per_s", iqMean(rates), units)
	r.Samples["ops_per_s.slices"] = len(rates)
}

// heapMB is the live heap after a collection: what the program holds once
// the harness has dropped its own inputs.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// print writes every metric by name with its unit.
func (r *runResult) print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced)"
	}
	fmt.Fprintf(w, "%s seed %d: %s metrics, %d operations checked, %d failed\n", r.Workload, r.Seed, kind, r.Attempted, r.Failed)
	if wd, ok := findWorkload(r.Workload); ok && !r.Trace {
		fmt.Fprintf(w, "  op  = %s (tail = p%g)\n  op2 = %s\n  ops_per_s counts %s\n", wd.Op, r.TailPercentile*100, wd.Op2, wd.Per)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		line := fmt.Sprintf("  %-40s %16.4f %s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
}
