package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef names one reported number. The two tables below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (TestManifestMatches
// keeps the two in step) and adds the regression bounds.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run prints for every workload. What
// "op" and "op2" mean on each workload is fixed in workloadDefs.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"op2_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"heap_mb", "MB"},
	{"dict_bytes_ratio", "ratio"},
	{"space_ratio", "ratio"},
}

// perLayer are the metrics a traced run prints, <layer>.<metric>. A layer a
// workload does not exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"harness.l0_p50_us", "us"},
		{"harness.trace_overhead_pct", "%"},
		{"harness.budget_close_pct", "%"},

		{"service.query_p50_us", "us"},
		{"service.append_p50_us", "us"},
		{"service.transport_us", "us"},
		{"service.handler_self_us", "us"},
		{"service.append_handler_self_us", "us"},
		{"service.resp_bytes_per_query", "B"},
		{"service.req_bytes_per_row", "B"},
		{"service.stats_ms", "ms"},

		{"colstore.count_eq_us", "us"},
		{"colstore.scan_eq_us", "us"},
		{"colstore.scan_range_us", "us"},
		{"colstore.locate_us", "us"},
		{"colstore.scan_self_us", "us"},
		{"colstore.snapshot_pin_ns", "ns"},
		{"colstore.zones_scanned", "count"},
		{"colstore.zones_skipped", "count"},
		{"colstore.code_decode_ns_per_row", "ns"},
		{"colstore.append_ns_per_row", "ns"},
		{"colstore.merge_ms_total", "ms"},
		{"colstore.merges_full", "count"},
		{"colstore.merges_partial", "count"},
		{"colstore.rows_rewritten_per_row_folded", "ratio"},

		{"dict.locate_ns", "ns"},
		{"dict.extract_ns", "ns"},
		{"dict.build_ms_total", "ms"},
		{"dict.bytes_total", "B"},
		{"dict.raw_bytes_total", "B"},
		{"dict.extracts", "count"},
		{"dict.locates", "count"},
		{"dict.formats_distinct", "count"},

		{"intcomp.count_eq_ns_per_krow", "ns"},
		{"intcomp.scan_eq_ns_per_krow", "ns"},
		{"intcomp.scan_range_ns_per_krow", "ns"},
		{"intcomp.vector_bytes_per_row", "B"},

		{"model.sample_ms_total", "ms"},
		{"model.estimate_ms_total", "ms"},
		{"model.size_err_pct_p50", "%"},
		{"model.size_err_pct_max", "%"},
		{"core.select_us_total", "us"},
		{"core.choose_ms_total", "ms"},
		{"core.choose_share", "ratio"},

		{"persist.wal_bytes_per_user_byte", "ratio"},
		{"persist.writes", "count"},
		{"persist.write_bytes", "B"},
		{"persist.syncs", "count"},
		{"persist.sync_ms_total", "ms"},
		{"persist.sync_p50_us", "us"},
		{"persist.checkpoint_bytes", "B"},
		{"persist.checkpoint_ms_total", "ms"},
		{"persist.parts_written", "count"},
		{"persist.parts_reused", "count"},
		{"persist.recover_ms", "ms"},
		{"persist.replayed_rows", "count"},

		{"tpch.load_rows_per_s", "1/s"},
	}
	for q := 1; q <= 22; q++ {
		defs = append(defs, metricDef{fmt.Sprintf("tpch.q%02d_ms", q), "ms"})
	}
	return defs
}()

// workloadDef fixes, per workload, what the generic end-to-end names stand
// for, so a later issue can say "op_p50_ms on svc-mixed" and mean one thing.
type workloadDef struct {
	Name string
	Why  string
	Op   string // op_p50_ms, op_tail_ms
	// Tail is the percentile op_tail_ms reports, given ten samples beyond it.
	Tail float64
	Op2  string // op2_p50_ms
	Per  string // ops_per_s
}

var workloadDefs = []workloadDef{
	{
		Name: "tpch-scan",
		Why:  "the paper's evaluation: tpch loops, colstore code decode and dict extract/locate do all the work; service and persist do none",
		Op:   "one TPC-H query",
		Tail: 0.95,
		Op2:  "one pass of the 22 TPC-H queries",
		Per:  "TPC-H queries",
	},
	{
		Name: "svc-read",
		Why:  "read-only HTTP query mix on merged, adaptively formatted parts: service, colstore, dict and intcomp each take a share; persist and merges idle",
		Op:   "one query of the mix (count, locate, scan eq, scan range)",
		Tail: 0.99,
		Op2:  "one scan query (eq or range)",
		Per:  "queries",
	},
	{
		Name: "svc-mixed",
		Why:  "70% append batches beside 30% queries on 2 shards: shard write lock, WAL group commit, delta reads and background merges run under queries",
		Op:   "one /v1/append batch",
		// p99 sits inside the stalls behind merge-time checkpoints, of which a
		// run has a few dozen: it moves by a third between identical runs.
		Tail: 0.95,
		Op2:  "one query of the mix against the tables being written",
		Per:  "operations (batches and queries)",
	},
	{
		Name: "merge-recover",
		Why:  "the paper's loop (sample, model, select, build, publish) plus crash recovery on persist: model, core, dict build and persist do all the work",
		Op:   "one column's choose + merge + checkpoint",
		Tail: 0.75,
		Op2:  "one persist.Open after Crash (recovery)",
		Per:  "column merges",
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// lat is a bag of latencies in nanoseconds.
type lat []int64

func (l *lat) add(d time.Duration) { *l = append(*l, int64(d)) }

func (l lat) sorted() lat {
	out := append(lat(nil), l...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile (0..1) of a sorted bag by nearest rank.
func (l lat) quantile(q float64) float64 {
	if len(l) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(l)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(l) {
		i = len(l) - 1
	}
	return float64(l[i])
}

func (l lat) sum() float64 {
	var s float64
	for _, v := range l {
		s += float64(v)
	}
	return s
}

// tailPerMille are the candidates for op_tail_ms, ascending, in thousandths.
var tailPerMille = []int{500, 750, 900, 950, 990}

// pickTail returns the highest candidate percentile that leaves at least ten
// samples beyond it; the median when even p75 does not.
func pickTail(n int) float64 {
	best := tailPerMille[0]
	for _, pm := range tailPerMille {
		if n-(n*pm+999)/1000 >= 10 {
			best = pm
		}
	}
	return float64(best) / 1000
}

func medianF(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// iqMean is the mean of the middle half of vals.
func iqMean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	s = s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

const (
	usPerNs = 1e-3
	msPerNs = 1e-6
)
