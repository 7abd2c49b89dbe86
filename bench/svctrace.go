package main

import (
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
	"strdict/internal/model"
	"strdict/internal/persist"
	"strdict/internal/service"
)

// The traced run of the service workloads: layered replay. The seeded
// operations are driven at each successive boundary —
//
//	L0  service.Client over loopback, against the real server
//	L1  service.Client on an in-process transport: Handler().ServeHTTP of a
//	    NewWithStores server over stores the benchmark opened itself
//	L2  the colstore/persist calls the handler makes
//	L3  the dict and intcomp calls underneath
//
// svc-read replays the same operations at every level, so a layer's self
// time is a per-operation difference. svc-mixed changes state as it goes, so
// its levels take consecutive slices of the sequence and are compared by
// per-kind medians.

// bag collects named samples from concurrent clients.
type bag struct {
	mu sync.Mutex
	m  map[string]lat
}

func (b *bag) add(name string, v int64) {
	b.mu.Lock()
	if b.m == nil {
		b.m = make(map[string]lat)
	}
	b.m[name] = append(b.m[name], v)
	b.mu.Unlock()
}

func (b *bag) median(name string) (float64, int) {
	l := b.m[name].sorted()
	return l.quantile(0.5), len(l)
}

// benchStores are the shard stores reopened by the benchmark after the
// server closed, on a counting filesystem.
type benchStores struct {
	fs        *countFS
	ps        []*persist.Store
	stores    []*colstore.Store
	srv       *service.Server // NewWithStores front: routing and the L1 handler
	recoverNs time.Duration
	replayed  uint64
}

func openBenchStores(dir string) (*benchStores, error) {
	bs := &benchStores{fs: newCountFS()}
	for i := 0; i < svcShards; i++ {
		start := time.Now()
		ps, err := persist.Open(filepath.Join(dir, fmt.Sprintf("shard-%04d", i)), persist.Options{FS: bs.fs})
		if err != nil {
			bs.close()
			return nil, err
		}
		bs.recoverNs += time.Since(start)
		bs.replayed += ps.Recovery().ReplayedRows
		bs.ps = append(bs.ps, ps)
		bs.stores = append(bs.stores, ps.Store)
	}
	bs.srv = service.NewWithStores(bs.stores, service.Options{})
	return bs, nil
}

func (bs *benchStores) close() {
	for _, ps := range bs.ps {
		ps.Close()
	}
}

func (bs *benchStores) column(o *op) (*colstore.StringColumn, int) {
	sh := bs.srv.ShardFor(o.tab.tenant, o.tab.table)
	tb, ok := bs.stores[sh].Lookup(o.tab.tenant + "/" + o.tab.table)
	if !ok {
		return nil, sh
	}
	c, _ := tb.LookupString(payloadCol)
	return c, sh
}

// storeExec is L2: what the handlers do, called directly.
func (bs *benchStores) storeExec(lt *levelTrace) execFn {
	return func(o *op, id int32) (time.Duration, bool) {
		c, sh := bs.column(o)
		if c == nil {
			return 0, false
		}
		if o.kind == opAppend {
			start := time.Now()
			for _, v := range o.vals {
				c.Append(v)
			}
			mid := time.Now()
			err := bs.ps[sh].Sync()
			end := time.Now()
			whole := lt.record(o, id, start, end)
			lt.tr.record("colstore.append_rows", id, whole, start, mid)
			lt.tr.record("persist.sync", id, whole, mid, end)
			return end.Sub(start), err == nil
		}
		var ok bool
		start := time.Now()
		snap := c.Snapshot()
		pinned := time.Now()
		var done time.Time
		switch o.kind {
		case opCount:
			n := snap.CountEq(o.lo)
			done = time.Now()
			ok = n == o.wantCount
		case opLocate:
			code, found := snap.Locate(o.lo)
			done = time.Now()
			ok = o.locateOK(code, found)
		case opScanEq:
			rows := snap.ScanEq(o.lo, nil)
			done = time.Now()
			ok = o.scanOK(len(rows), rows[:min(len(rows), maxScanRows)])
		case opScanRange:
			rows := snap.ScanRange(o.lo, o.hi, nil)
			done = time.Now()
			ok = o.scanOK(len(rows), rows[:min(len(rows), maxScanRows)])
		}
		snap.Release()
		end := time.Now()
		whole := lt.record(o, id, start, end)
		lt.tr.record("colstore.snapshot_pin", id, whole, start, pinned)
		// L3 replays what happens inside the call, so the call span is the
		// parent the next level must name.
		lt.ids[id] = lt.tr.record("colstore."+opKindNames[o.kind], id, whole, pinned, done)
		return end.Sub(start), ok
	}
}

// leafExec is L3: the dictionary probes and scan kernels a query comes down
// to, on the column's published main part. Appends have no L3.
func (bs *benchStores) leafExec(lt *levelTrace, extra *bag) execFn {
	return func(o *op, id int32) (time.Duration, bool) {
		c, _ := bs.column(o)
		if c == nil || o.kind == opAppend {
			return 0, c != nil
		}
		d, vec, n := c.MainParts()
		start := time.Now()
		code, found := d.Locate(o.lo)
		located := time.Now()
		hiLocated := located
		switch o.kind {
		case opCount:
			if found {
				intcomp.CountEq(vec, uint64(code), 0, n)
			}
		case opScanEq:
			if found {
				intcomp.ScanEq(vec, uint64(code), 0, n, nil)
			}
		case opScanRange:
			hi, _ := d.Locate(o.hi)
			hiLocated = time.Now()
			intcomp.ScanRange(vec, uint64(code), uint64(hi), 0, n, nil)
		}
		end := time.Now()
		whole := lt.record(o, id, start, end)
		lt.tr.record("dict.locate", id, whole, start, located)
		if o.kind == opScanRange {
			lt.tr.record("dict.locate", id, whole, located, hiLocated)
		}
		if o.kind != opLocate && (found || o.kind == opScanRange) && n > 0 {
			lt.tr.record("intcomp."+opKindNames[o.kind], id, whole, hiLocated, end)
			extra.add("intcomp."+opKindNames[o.kind]+"_ns_per_krow", int64(float64(end.Sub(hiLocated))*1000/float64(n)))
		}
		if found {
			t0 := time.Now()
			d.AppendExtract(nil, code)
			extra.add("dict.extract_ns", int64(time.Since(t0)))
		}
		return end.Sub(start), true
	}
}

// merger stands in for the shards' merge daemons on bench-owned stores:
// the same scheduler settings and the same chooser as service.New wires,
// driven by Tick so each merge pass can be timed, with the choice taken
// apart into TakeSample, Candidates and Select.
type merger struct {
	scheds []*colstore.MergeScheduler
	stop   chan struct{}
	done   chan struct{}

	mu                    sync.Mutex
	sample, estimate, sel lat
	passes                lat // merge passes that merged something
}

func startMerger(bs *benchStores, seed int64, tr *tracer) *merger {
	m := &merger{stop: make(chan struct{}), done: make(chan struct{})}
	costs := model.DefaultCostTable()
	for _, st := range bs.stores {
		mgr := core.NewManager(core.Options{DesiredFreeBytes: (1 << 30) / 8})
		s := colstore.NewMergeScheduler(st, deltaRowThreshold)
		s.PartialMerges = true
		s.Chooser = func(snap *colstore.Snapshot, lifetimeNs float64) dict.Format {
			t0 := time.Now()
			acc := snap.Stats()
			stats := core.ColumnStats{
				Name: snap.Name(), NumStrings: uint64(snap.DictLen()),
				Extracts: acc.Extracts, Locates: acc.Locates, LifetimeNs: lifetimeNs,
				ColumnVectorBytes: snap.VectorBytes(),
				Sample:            model.TakeSample(snap.DictValues(), 0.01, seed),
			}
			t1 := time.Now()
			cands := core.Candidates(stats, costs)
			t2 := time.Now()
			won := core.Select(core.StrategyTilt, mgr.C(), cands)
			t3 := time.Now()
			m.mu.Lock()
			m.sample.add(t1.Sub(t0))
			m.estimate.add(t2.Sub(t1))
			m.sel.add(t3.Sub(t2))
			m.mu.Unlock()
			root := tr.record("core.choose", -1, -1, t0, t3)
			tr.record("model.sample", -1, root, t0, t1)
			tr.record("model.estimate", -1, root, t1, t2)
			tr.record("core.select", -1, root, t2, t3)
			return won.Format
		}
		m.scheds = append(m.scheds, s)
	}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(colstore.DefaultMergeInterval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				for _, s := range m.scheds {
					start := time.Now()
					if merged := s.Tick(); len(merged) > 0 {
						end := time.Now()
						m.mu.Lock()
						m.passes.add(end.Sub(start))
						m.mu.Unlock()
						tr.record("colstore.merge_pass", -1, -1, start, end)
					}
				}
			}
		}
	}()
	return m
}

// finish stops the ticker goroutine, waits for it and reports.
func (m *merger) finish(res *runResult, bs *benchStores) {
	close(m.stop)
	<-m.done
	var total colstore.MergeStats
	for i, s := range m.scheds {
		for _, c := range bs.stores[i].StringColumns() {
			st := s.ColumnMergeStats(c.Name())
			total.Full += st.Full
			total.Partial += st.Partial
			total.RowsFolded += st.RowsFolded
			total.RowsRewritten += st.RowsRewritten
		}
	}
	chooseMs := (m.sample.sum() + m.estimate.sum() + m.sel.sum()) * msPerNs
	res.setN("model.sample_ms_total", m.sample.sum()*msPerNs, len(m.sample))
	res.setN("model.estimate_ms_total", m.estimate.sum()*msPerNs, len(m.estimate))
	res.setN("core.select_us_total", m.sel.sum()*usPerNs, len(m.sel))
	res.setN("core.choose_ms_total", chooseMs, len(m.sample))
	res.setN("colstore.merge_ms_total", m.passes.sum()*msPerNs, len(m.passes))
	res.set("colstore.merges_full", float64(total.Full))
	res.set("colstore.merges_partial", float64(total.Partial))
	if total.RowsFolded > 0 {
		res.set("colstore.rows_rewritten_per_row_folded", float64(total.RowsRewritten)/float64(total.RowsFolded))
	}
}

// medianDiff is the median of a[i]-b[i] over the operations both levels ran.
func medianDiff(a, b *levelTrace) float64 {
	var d lat
	for i := range a.durNs {
		if a.ids[i] >= 0 && b.ids[i] >= 0 {
			d = append(d, a.durNs[i]-b.durNs[i])
		}
	}
	return d.sorted().quantile(0.5)
}

// kindDiff compares two levels that ran different operations of the same
// mix: the query kinds' median differences, weighted by each kind's share
// in a.
func kindDiff(a, b *[numOpKinds]lat) float64 {
	var sum, n float64
	for _, k := range queryKinds {
		w := float64(len(a[k]))
		sum += w * (a[k].sorted().quantile(0.5) - b[k].sorted().quantile(0.5))
		n += w
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

// kinds sorts the level's durations by operation kind.
func (lt *levelTrace) kinds(sessions [][]op) (out [numOpKinds]lat) {
	stride := len(lt.ids) / len(sessions)
	for s, ops := range sessions {
		for i := range ops {
			if id := s*stride + i; lt.ids[id] >= 0 {
				out[ops[i].kind] = append(out[ops[i].kind], lt.durNs[id])
			}
		}
	}
	return out
}

func traceSvc(name string, sz sizes, seed int64, tmp, outDir string) (*runResult, error) {
	mixed := name == "svc-mixed"
	res := newResult(name, seed, true)
	env, err := setupSvc(sz, seed, tmp, mixed)
	if err != nil {
		return nil, err
	}
	defer env.close()
	res.SeqHash = seqHash(env.sessions)
	perSession := len(env.sessions[0])
	nIDs := svcTenants * perSession
	tr := newTracer()
	tally := func(lr levelRun) levelRun {
		res.Attempted += lr.attempted
		res.Failed += lr.failed
		return lr
	}

	start := time.Now()
	if _, err := env.cl.Stats(); err != nil {
		return nil, err
	}
	res.set("service.stats_ms", float64(time.Since(start))*msPerNs)

	// Which of a session's measured operations run where. svc-read: an
	// untraced slice of a third, then every level over that same slice.
	// svc-mixed: untraced over the first 15%, L0 over the next 15%, and over
	// the rest L1 and L2 alternate operation by operation — both see the same
	// mix of states — with each L2 query replayed at L3 at once, before the
	// table can change.
	n := perSession - env.warm
	plainTo := env.warm + n/3
	l0From, l0To, lowFrom, lowTo := env.warm, plainTo, env.warm, plainTo
	if mixed {
		plainTo = env.warm + n*15/100
		l0From, l0To, lowFrom, lowTo = plainTo, env.warm+n*30/100, env.warm+n*30/100, perSession
	}
	runSessions(env.sessions, 0, env.warm, time.Time{}, clientExec(env.cl, nil))
	plain := tally(runSessions(env.sessions, env.warm, plainTo, time.Time{}, clientExec(env.cl, nil)))
	lt0 := newLevelTrace(tr, "l0", nIDs, nil)
	r0 := tally(runSessions(env.sessions, l0From, l0To, time.Time{}, clientExec(env.cl, lt0)))
	if err := env.stop(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}

	bs, err := openBenchStores(env.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen shards: %w", err)
	}
	defer bs.close()
	ht := &handlerTransport{h: bs.srv.Handler()}
	cl1 := &service.Client{Base: "http://in-process", HTTP: &http.Client{Transport: ht}}
	lt1 := newLevelTrace(tr, "l1", nIDs, lt0)
	lt2 := newLevelTrace(tr, "l2", nIDs, lt1)
	lt3 := newLevelTrace(tr, "l3", nIDs, lt2)
	var extra bag
	l1, l2, l3 := clientExec(cl1, lt1), bs.storeExec(lt2), bs.leafExec(lt3, &extra)
	z0 := zoneTotals(bs.stores)
	if mixed {
		mg := startMerger(bs, seed, tr)
		tally(runSessions(env.sessions, lowFrom, lowTo, time.Time{}, func(o *op, id int32) (time.Duration, bool) {
			if id%2 == 0 {
				return l1(o, id)
			}
			d, ok := l2(o, id)
			l3(o, id)
			return d, ok
		}))
		mg.finish(res, bs)
	} else {
		for _, exec := range []execFn{l1, l2, l3} {
			tally(runSessions(env.sessions, lowFrom, lowTo, time.Time{}, exec))
		}
	}
	z1 := zoneTotals(bs.stores)
	k1, k2, k3 := lt1.kinds(env.sessions), lt2.kinds(env.sessions), lt3.kinds(env.sessions)
	queries := func(k *[numOpKinds]lat) lat { return mergeKinds(k, queryKinds...) }

	// End-to-end view of the traced L0 and the tracing overhead.
	primary := queryKinds
	if mixed {
		primary = []opKind{opAppend}
	}
	l0, base := r0.merge(primary...).sorted(), plain.merge(primary...).sorted()
	res.setN("harness.l0_p50_us", l0.quantile(0.5)*usPerNs, len(l0))
	res.set("harness.trace_overhead_pct", 100*(l0.quantile(0.5)-base.quantile(0.5))/base.quantile(0.5))
	q0 := r0.merge(queryKinds...).sorted()
	res.setN("service.query_p50_us", q0.quantile(0.5)*usPerNs, len(q0))
	res.setN("service.append_p50_us", r0.byKind[opAppend].sorted().quantile(0.5)*usPerNs, len(r0.byKind[opAppend]))

	// Self times of the query path, layer by layer.
	transport, handler, scanSelf := kindDiff(&r0.byKind, &k1), kindDiff(&k1, &k2), medianDiff(lt2, lt3)
	if !mixed {
		transport, handler = medianDiff(lt0, lt1), medianDiff(lt1, lt2)
		leaf := queries(&k3).sorted().quantile(0.5)
		res.set("harness.budget_close_pct", 100*(transport+handler+scanSelf+leaf)/q0.quantile(0.5))
	}
	res.set("service.transport_us", transport*usPerNs)
	res.set("service.handler_self_us", handler*usPerNs)
	res.set("colstore.scan_self_us", scanSelf*usPerNs)
	if q := len(queries(&k1)); q > 0 {
		res.set("service.resp_bytes_per_query", float64(ht.queryRespBytes)/float64(q))
	}

	byName := make(map[string]lat)
	for _, s := range tr.spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
	}
	spanMedian := func(metric, span string, scale float64) {
		l := byName[span].sorted()
		res.setN(metric, l.quantile(0.5)*scale, len(l))
	}
	spanMedian("colstore.count_eq_us", "colstore.count", usPerNs)
	spanMedian("colstore.locate_us", "colstore.locate", usPerNs)
	spanMedian("colstore.scan_eq_us", "colstore.scan_eq", usPerNs)
	spanMedian("colstore.scan_range_us", "colstore.scan_range", usPerNs)
	spanMedian("colstore.snapshot_pin_ns", "colstore.snapshot_pin", 1)
	spanMedian("dict.locate_ns", "dict.locate", 1)
	res.set("colstore.zones_scanned", float64(z1.ZonesScanned-z0.ZonesScanned))
	res.set("colstore.zones_skipped", float64(z1.ZonesSkipped-z0.ZonesSkipped))
	for metric, sample := range map[string]string{
		"intcomp.count_eq_ns_per_krow":   "intcomp.count_ns_per_krow",
		"intcomp.scan_eq_ns_per_krow":    "intcomp.scan_eq_ns_per_krow",
		"intcomp.scan_range_ns_per_krow": "intcomp.scan_range_ns_per_krow",
		"dict.extract_ns":                "dict.extract_ns",
	} {
		v, n := extra.median(sample)
		res.setN(metric, v, n)
	}
	var vecBytes, vecRows uint64
	for _, st := range bs.stores {
		for _, c := range st.StringColumns() {
			_, vec, n := c.MainParts()
			vecBytes, vecRows = vecBytes+vec.Bytes(), vecRows+uint64(n)
		}
	}
	res.set("intcomp.vector_bytes_per_row", float64(vecBytes)/float64(vecRows))
	dictTotals(res, bs.stores)
	res.set("persist.recover_ms", float64(bs.recoverNs)*msPerNs)
	res.set("persist.replayed_rows", float64(bs.replayed))

	if mixed {
		appendRows := byName["colstore.append_rows"].sorted().quantile(0.5)
		res.set("service.append_handler_self_us", (k1[opAppend].sorted().quantile(0.5)-appendRows)*usPerNs)
		res.setN("colstore.append_ns_per_row", appendRows/float64(sz.svcBatch), len(byName["colstore.append_rows"]))
		if l1Rows := len(k1[opAppend]) * sz.svcBatch; l1Rows > 0 {
			res.set("service.req_bytes_per_row", float64(ht.appendReqBytes)/float64(l1Rows))
		}
		// What L1 and L2 appended is what the counting filesystem saw logged.
		var userBytes uint64
		for _, ops := range env.sessions {
			for _, o := range ops[lowFrom:lowTo] {
				for _, v := range o.vals {
					userBytes += uint64(len(v))
				}
			}
		}
		bs.fs.report(res, userBytes)
	}

	path, err := tr.write(outDir, res.Workload, seed)
	res.TraceFile = path
	return res, err
}
