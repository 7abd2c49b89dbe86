package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
	"strdict/internal/tpch"
)

// tpch-scan: the paper's own evaluation, in process, without service or
// journal. Set-up loads TPC-H in fc inline, runs the queries once (the
// traced pass that feeds the manager its access counters, and the baseline
// every later pass must reproduce), then reconfigures every dictionary at
// c = 1 with the tilt strategy. One client then runs passes of the 22
// queries.

const (
	tpchSampleRatio = 0.01
	// tpchLifetimeNs is the lifetime Reconfigure normalizes runtimes by. A
	// constant, not the measured duration of the traced pass, so the chosen
	// formats are a function of the seed alone and dict_bytes_ratio repeats.
	tpchLifetimeNs = 1e9
)

type tpchEnv struct {
	store    *colstore.Store
	baseline []*tpch.Result
	rawUser  uint64 // raw bytes of every cell loaded
	rawDict  uint64 // raw bytes of the distinct strings
	loadRows int
	loadDur  time.Duration
}

func setupTPCH(sz sizes, seed int64) *tpchEnv {
	e := &tpchEnv{}
	start := time.Now()
	e.store = tpch.Load(tpch.Config{ScaleFactor: sz.tpchSF, Seed: seed, InitialFormat: dict.FCInline})
	e.loadDur = time.Since(start)
	for _, name := range e.store.TableNames() {
		t := e.store.Table(name)
		e.loadRows += t.Rows()
		e.rawUser += 8 * uint64(t.Rows()) * uint64(len(t.Int64Columns())+len(t.Float64Columns()))
		for _, c := range t.StringColumns() {
			user, distinct := rawBytesOf(c)
			e.rawUser += user
			e.rawDict += distinct
		}
	}
	e.store.ResetStats()
	e.baseline = tpch.RunAll(e.store)
	mgr := core.NewManager(core.Options{InitialC: 1, Strategy: core.StrategyTilt})
	tpch.Reconfigure(e.store, mgr, tpchLifetimeNs, tpchSampleRatio, seed)
	return e
}

// rawBytesOf returns the summed string length over a merged column's rows
// and over its distinct values, from the dictionary and the code vector.
func rawBytesOf(c *colstore.StringColumn) (user, distinct uint64) {
	d, vec, n := c.MainParts()
	lens := make([]uint64, d.Len())
	d.ForEach(func(id uint32, value []byte) bool {
		lens[id] = uint64(len(value))
		distinct += uint64(len(value))
		return true
	})
	var codes []uint64
	for start := 0; start < n; start += 4096 {
		codes = vec.AppendRange(codes[:0], start, min(4096, n-start))
		for _, code := range codes {
			user += lens[code]
		}
	}
	return user, distinct
}

// pass runs the 22 queries once, timing each, and checks every result
// against the fc inline baseline: any format must return the same rows.
func (e *tpchEnv) pass(res *runResult, perQuery []lat, tr *tracer, passID int32) time.Duration {
	var total time.Duration
	var spans [22]struct{ start, end time.Time }
	for i, q := range tpch.Queries() {
		start := time.Now()
		got := q.Run(e.store)
		end := time.Now()
		spans[i].start, spans[i].end = start, end
		perQuery[i].add(end.Sub(start))
		total += end.Sub(start)
		res.count(reflect.DeepEqual(got, e.baseline[i]))
	}
	if tr != nil {
		root := tr.record("tpch.pass", passID, -1, spans[0].start, spans[21].end)
		for i, s := range spans {
			tr.record(fmt.Sprintf("tpch.q%02d", i+1), passID, root, s.start, s.end)
		}
	}
	return total
}

func runTPCH(sz sizes, seed int64) (*runResult, error) {
	res := newResult("tpch-scan", seed, false)
	var (
		env    *tpchEnv
		setups []float64
	)
	for rep := 0; rep < sz.setupReps; rep++ {
		env = nil
		start := time.Now()
		env = setupTPCH(sz, seed)
		setups = append(setups, time.Since(start).Seconds())
	}
	res.setN("setup_s", medianF(setups), len(setups))

	perQuery := make([]lat, 22)
	warm := newResult("tpch-scan", seed, false)
	env.pass(warm, make([]lat, 22), nil, 0)
	var passes, queries lat
	for p := 0; p < sz.tpchPasses; p++ {
		passes.add(env.pass(res, perQuery, nil, int32(p)))
	}
	for _, l := range perQuery {
		queries = append(queries, l...)
	}
	res.Ops["passes"], res.Ops["queries"] = len(passes), len(queries)
	rates := make([]float64, len(passes))
	for i, ns := range passes {
		rates[i] = 22 / (float64(ns) / 1e9)
	}
	res.setLatency(queries, passes, rates, len(queries))
	res.set("dict_bytes_ratio", float64(tpch.DictionaryBytes(env.store))/float64(env.rawDict))
	res.set("space_ratio", float64(env.store.Bytes())/float64(env.rawUser))
	env.baseline = nil
	res.set("heap_mb", heapMB())
	runtime.KeepAlive(env.store)
	return res, nil
}

// traceTPCH is the traced run: per-query spans under each pass, the exact
// dictionary access and zone-map counters of a pass, and direct calls on
// the dictionaries and code vectors underneath.
func traceTPCH(sz sizes, seed int64, outDir string) (*runResult, error) {
	res := newResult("tpch-scan", seed, true)
	env := setupTPCH(sz, seed)
	res.set("tpch.load_rows_per_s", float64(env.loadRows)/env.loadDur.Seconds())
	passes := max(3, sz.tpchPasses/3)

	// Untraced slice: whole passes through tpch.RunAll, the overhead base.
	tpch.RunAll(env.store)
	var plain lat
	for p := 0; p < passes; p++ {
		start := time.Now()
		tpch.RunAll(env.store)
		plain.add(time.Since(start))
	}

	tr := newTracer()
	stores := []*colstore.Store{env.store}
	perQuery := make([]lat, 22)
	var traced lat
	var extracts, locates, scanned, skipped []uint64
	for p := 0; p < passes; p++ {
		env.store.ResetStats()
		z0 := zoneTotals(stores)
		traced.add(env.pass(res, perQuery, tr, int32(p)))
		var acc colstore.AccessStats
		for _, c := range env.store.StringColumns() {
			st := c.Stats()
			acc.Extracts += st.Extracts
			acc.Locates += st.Locates
		}
		z1 := zoneTotals(stores)
		extracts, locates = append(extracts, acc.Extracts), append(locates, acc.Locates)
		scanned, skipped = append(scanned, z1.ZonesScanned-z0.ZonesScanned), append(skipped, z1.ZonesSkipped-z0.ZonesSkipped)
	}
	// The counters are exact: every pass must report the same numbers.
	for _, counts := range [][]uint64{extracts, locates, scanned, skipped} {
		for _, v := range counts {
			res.count(v == counts[0])
		}
	}
	res.Ops["passes"] = passes
	res.set("dict.extracts", float64(extracts[0]))
	res.set("dict.locates", float64(locates[0]))
	res.set("colstore.zones_scanned", float64(scanned[0]))
	res.set("colstore.zones_skipped", float64(skipped[0]))
	for i, l := range perQuery {
		res.setN(fmt.Sprintf("tpch.q%02d_ms", i+1), l.sorted().quantile(0.5)*msPerNs, len(l))
	}
	l0, base := traced.sorted().quantile(0.5), plain.sorted().quantile(0.5)
	res.setN("harness.l0_p50_us", l0*usPerNs, len(traced))
	res.set("harness.trace_overhead_pct", 100*(l0-base)/base)

	dictTotals(res, stores)
	probeDicts(res, stores, seed)
	kernelProbe(res, env.store.Table("lineitem").Str("l_orderkey"))

	path, err := tr.write(outDir, res.Workload, seed)
	res.TraceFile = path
	return res, err
}

func zoneTotals(stores []*colstore.Store) colstore.ScanStats {
	var z colstore.ScanStats
	for _, s := range stores {
		for _, c := range s.StringColumns() {
			st := c.ScanStats()
			z.ZonesScanned += st.ZonesScanned
			z.ZonesSkipped += st.ZonesSkipped
		}
	}
	return z
}

// dictTotals reports the dictionaries' encoded and raw bytes and how many
// distinct formats the stores' string columns use.
func dictTotals(res *runResult, stores []*colstore.Store) {
	var enc, raw uint64
	formats := make(map[dict.Format]bool)
	for _, s := range stores {
		for _, c := range s.StringColumns() {
			d, _, _ := c.MainParts()
			enc += d.Bytes()
			formats[d.Format()] = true
			d.ForEach(func(_ uint32, value []byte) bool {
				raw += uint64(len(value))
				return true
			})
		}
	}
	res.set("dict.bytes_total", float64(enc))
	res.set("dict.raw_bytes_total", float64(raw))
	res.set("dict.formats_distinct", float64(len(formats)))
}

// probeDicts times Locate and AppendExtract directly on every main
// dictionary, 64 evenly spaced entries each, and reports the median call
// over the columns.
func probeDicts(res *runResult, stores []*colstore.Store, seed int64) {
	const probes = 64
	var locate, extract lat
	var buf []byte
	for _, s := range stores {
		for _, c := range s.StringColumns() {
			d, _, _ := c.MainParts()
			if d.Len() == 0 {
				continue
			}
			ids := make([]uint32, probes)
			vals := make([]string, probes)
			for i := range ids {
				ids[i] = uint32((i*d.Len()/probes + int(seed)) % d.Len())
				vals[i] = d.Extract(ids[i])
			}
			start := time.Now()
			for _, id := range ids {
				buf = d.AppendExtract(buf[:0], id)
			}
			mid := time.Now()
			for _, v := range vals {
				d.Locate(v)
			}
			end := time.Now()
			extract.add(mid.Sub(start) / probes)
			locate.add(end.Sub(mid) / probes)
		}
	}
	res.setN("dict.extract_ns", extract.sorted().quantile(0.5), len(extract))
	res.setN("dict.locate_ns", locate.sorted().quantile(0.5), len(locate))
}

// kernelProbe times the bulk code decode of a column and the intcomp scan
// kernels on its code vector, per thousand rows.
func kernelProbe(res *runResult, c *colstore.StringColumn) {
	const reps = 9
	d, vec, n := c.MainParts()
	if n == 0 {
		return
	}
	snap := c.Snapshot()
	defer snap.Release()
	mid := uint64(d.Len() / 2)
	hi := min(mid+8, uint64(d.Len()))
	var decode, count, eq, rng lat
	var codes []uint64
	var rows []int
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for start := 0; start < n; start += 256 {
			codes = snap.AppendCodeRange(codes[:0], start, min(256, n-start))
		}
		t1 := time.Now()
		intcomp.CountEq(vec, mid, 0, n)
		t2 := time.Now()
		rows = intcomp.ScanEq(vec, mid, 0, n, rows[:0])
		t3 := time.Now()
		rows = intcomp.ScanRange(vec, mid, hi, 0, n, rows[:0])
		t4 := time.Now()
		decode.add(t1.Sub(t0))
		count.add(t2.Sub(t1))
		eq.add(t3.Sub(t2))
		rng.add(t4.Sub(t3))
	}
	perKrow := func(l lat) float64 { return l.sorted().quantile(0.5) / (float64(n) / 1000) }
	res.setN("colstore.code_decode_ns_per_row", perKrow(decode)/1000, reps)
	res.setN("intcomp.count_eq_ns_per_krow", perKrow(count), reps)
	res.setN("intcomp.scan_eq_ns_per_krow", perKrow(eq), reps)
	res.setN("intcomp.scan_range_ns_per_krow", perKrow(rng), reps)
	res.set("intcomp.vector_bytes_per_row", float64(vec.Bytes())/float64(n))
}
