package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"strdict/internal/service"
)

// The two service workloads: svc-read (read-only query mix) and svc-mixed
// (70% append batches beside the same mix). One process holds the server, a
// loopback listener and the closed-loop clients.

const (
	svcShards          = 2
	svcTenants         = 4 // one session (operation sequence) per tenant
	svcTablesPerTenant = 2
	svcWriteFrac       = 0.70
	deltaRowThreshold  = 64 << 10 // the service default, restated for bench-owned schedulers
	preloadOps         = 2        // svc-mixed: untimed preload appends per table
)

// numClients is the closed-loop client count: min(nproc, 4). The sessions
// are fixed at four whatever the machine, so the operation sequences do not
// depend on it; a client runs its sessions interleaved.
func numClients() int {
	n := runtime.NumCPU()
	if n > svcTenants {
		n = svcTenants
	}
	return n
}

type svcEnv struct {
	dir      string
	srv      *service.Server
	hs       *http.Server
	cl       *service.Client
	tables   []*tableData
	sessions [][]op // per tenant; the first warm operations are untimed
	warm     int
}

// serve mounts the server on a loopback listener.
func (e *svcEnv) serve() error {
	srv, err := service.New(service.Options{Shards: svcShards, Dir: e.dir})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	e.srv = srv
	e.hs = &http.Server{Handler: srv.Handler()}
	go e.hs.Serve(ln)
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = numClients()
	e.cl = &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: tr}}
	return nil
}

// stop closes the listener and the server (draining every delta through a
// full merge). The closed server's stores stay in memory until the next
// serve or close, so the footprint of the drained state can be measured.
func (e *svcEnv) stop() error {
	if e.hs == nil {
		return nil
	}
	e.hs.Close()
	e.hs = nil
	e.cl.HTTP.CloseIdleConnections()
	return e.srv.Close()
}

func (e *svcEnv) close() {
	e.stop()
	os.RemoveAll(e.dir)
}

// setupSvc generates the tables and operation sequences, loads the base
// rows through /v1/append, closes the server (merges drain and checkpoint,
// formats are chosen) and reopens it (recovery), so queries hit merged,
// adaptively formatted main parts.
func setupSvc(sz sizes, seed int64, tmp string, mixed bool) (*svcEnv, error) {
	dir, err := os.MkdirTemp(tmp, "svc-*")
	if err != nil {
		return nil, err
	}
	e := &svcEnv{dir: dir, warm: sz.svcWarmOps}
	nOps, writeFrac, fresh := sz.svcReadOps, 0.0, 0
	if mixed {
		nOps, writeFrac = sz.svcMixedOps, svcWriteFrac
		// Enough new values for every append of a session to land on one table.
		fresh = int(float64((nOps+e.warm)*sz.svcBatch)*freshFrac*svcWriteFrac) + deltaRowThreshold/4
	}
	for t := 0; t < svcTenants; t++ {
		for j := 0; j < svcTablesPerTenant; j++ {
			id := t*svcTablesPerTenant + j
			e.tables = append(e.tables, newTableData(id, fmt.Sprintf("tenant-%d", t), fmt.Sprintf("table-%d", j),
				svcCorpora[id%len(svcCorpora)], sz.svcRows, sz.svcDistinct, fresh, seed*1000+int64(id)))
		}
	}
	// Two load phases, each ended by closing the server: the close drains
	// every delta through a full merge. The first merge of a column chooses
	// its format from an empty dictionary; the second sees the loaded one.
	// Tables stay below the merge daemons' row threshold, so these two are
	// the only merges of set-up and the resulting formats do not depend on
	// timing.
	for phase := 0; phase < 2; phase++ {
		load := make([][]op, svcTenants)
		for _, t := range e.tables {
			cut := len(t.baseSeq) * 19 / 20
			seq := t.baseSeq[:cut]
			if phase == 1 {
				seq = t.baseSeq[cut:]
			}
			s := t.id / svcTablesPerTenant
			for off := 0; off < len(seq); off += sz.svcLoadBatch {
				o := op{kind: opAppend, tab: t}
				for _, idx := range seq[off:min(off+sz.svcLoadBatch, len(seq))] {
					o.vals = append(o.vals, t.pool[idx])
				}
				load[s] = append(load[s], o)
			}
		}
		if err := e.serve(); err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: open: %w", err)
		}
		lr := runSessions(load, 0, 1<<30, time.Time{}, clientExec(e.cl, nil))
		if err := e.stop(); err != nil || lr.failed > 0 {
			e.close()
			return nil, fmt.Errorf("set-up: %d of %d load batches failed, close: %v", lr.failed, lr.attempted, err)
		}
	}
	for _, t := range e.tables {
		t.baseSeq = nil
	}
	if err := e.serve(); err != nil {
		e.close()
		return nil, fmt.Errorf("set-up: reopen: %w", err)
	}
	e.sessions = make([][]op, svcTenants)
	for s := range e.sessions {
		tabs := e.tables[s*svcTablesPerTenant : (s+1)*svcTablesPerTenant]
		g := newOpGen(seed*7919+int64(s), tabs, sz.svcBatch, !mixed)
		if mixed {
			// Untimed preload: table k starts the measured phase with k/8 of
			// its base row count (just under the merge threshold) in its delta,
			// so the columns cross the threshold one after another through the
			// run, not all at once near its end.
			for ti, t := range tabs {
				rows := max(1, t.id*sz.svcRows/len(e.tables)/preloadOps)
				for i := 0; i < preloadOps; i++ {
					e.sessions[s] = append(e.sessions[s], g.appendBatch(ti, rows))
				}
			}
		}
		e.sessions[s] = append(e.sessions[s], g.sequence(sz.svcWarmOps+nOps, writeFrac)...)
	}
	if mixed {
		e.warm += svcTablesPerTenant * preloadOps
	}
	return e, nil
}

// userBytes is the raw payload appended so far according to the model.
func (e *svcEnv) userBytes() uint64 {
	var n uint64
	for _, t := range e.tables {
		n += t.rawBytes
	}
	return n
}

// levelRun is what driving a slice of the sessions at one boundary yields.
type levelRun struct {
	byKind    [numOpKinds]lat
	attempted int
	failed    int
	truncated bool
	// rates is the clients' combined operations per second over each of
	// rateSlices equal slices of the operations.
	rates []float64
}

const rateSlices = 20

func (lr *levelRun) merge(kinds ...opKind) lat { return mergeKinds(&lr.byKind, kinds...) }

// mergeKinds pools the latencies of the given operation kinds.
func mergeKinds(byKind *[numOpKinds]lat, kinds ...opKind) lat {
	var out lat
	for _, k := range kinds {
		out = append(out, byKind[k]...)
	}
	return out
}

var queryKinds = []opKind{opCount, opLocate, opScanEq, opScanRange}

// execFn performs one operation at some boundary, checks the answer against
// the operation's expectation and returns how long the call took.
type execFn func(o *op, id int32) (time.Duration, bool)

// runSessions drives operations [from, to) of every session with
// numClients closed-loop clients: client c owns sessions c, c+clients, …
// and alternates between them one operation at a time. A non-zero deadline
// stops the clients early (a machine far slower than the one the counts
// were sized on must not run past the driver's limit).
func runSessions(sessions [][]op, from, to int, deadline time.Time, exec execFn) levelRun {
	clients := numClients()
	stride := 0
	for _, ops := range sessions {
		stride = max(stride, len(ops))
	}
	parts := make([]levelRun, clients)
	to = min(to, stride)
	n := to - from
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lr := &parts[c]
			mark, done := time.Now(), 0
			for i := from; i < to; i++ {
				for s := c; s < len(sessions); s += clients {
					if i >= len(sessions[s]) {
						continue
					}
					o := &sessions[s][i]
					d, ok := exec(o, int32(s*stride+i))
					lr.byKind[o.kind].add(d)
					lr.attempted++
					if !ok {
						lr.failed++
					}
				}
				if n >= rateSlices && (i+1-from)*rateSlices/n > len(lr.rates) {
					now := time.Now()
					lr.rates = append(lr.rates, float64(lr.attempted-done)/now.Sub(mark).Seconds())
					mark, done = now, lr.attempted
				}
				if !deadline.IsZero() && i%16 == 0 && time.Now().After(deadline) {
					lr.truncated = true
					return
				}
			}
		}(c)
	}
	wg.Wait()
	var out levelRun
	for _, p := range parts {
		for j, r := range p.rates {
			if j == len(out.rates) {
				out.rates = append(out.rates, 0)
			}
			out.rates[j] += r
		}
		for k := range p.byKind {
			out.byKind[k] = append(out.byKind[k], p.byKind[k]...)
		}
		out.attempted += p.attempted
		out.failed += p.failed
		out.truncated = out.truncated || p.truncated
	}
	return out
}

// levelTrace records one span per operation for a replay level and
// remembers each operation's span so the next level down can name it as
// parent. A nil *levelTrace records nothing.
type levelTrace struct {
	tr     *tracer
	name   string
	ids    []int32 // operation id → span id at this level, -1 if it did not run
	durNs  []int64 // operation id → duration at this level
	parent *levelTrace
}

func newLevelTrace(tr *tracer, name string, nOps int, parent *levelTrace) *levelTrace {
	lt := &levelTrace{tr: tr, name: name, ids: make([]int32, nOps), durNs: make([]int64, nOps), parent: parent}
	for i := range lt.ids {
		lt.ids[i] = -1
	}
	return lt
}

func (lt *levelTrace) parentOf(id int32) int32 {
	if lt == nil || lt.parent == nil {
		return -1
	}
	return lt.parent.ids[id]
}

func (lt *levelTrace) record(o *op, id int32, start, end time.Time) int32 {
	if lt == nil {
		return -1
	}
	sid := lt.tr.record(lt.name+"."+opKindNames[o.kind], id, lt.parentOf(id), start, end)
	lt.ids[id], lt.durNs[id] = sid, int64(end.Sub(start))
	return sid
}

// clientExec drives operations through service.Client — over loopback (L0)
// or, given a client whose transport calls the handler in process, at the
// handler boundary (L1).
func clientExec(cl *service.Client, lt *levelTrace) execFn {
	return func(o *op, id int32) (time.Duration, bool) {
		t := o.tab
		var ok bool
		start := time.Now()
		var end time.Time
		switch o.kind {
		case opCount:
			n, err := cl.CountEq(t.tenant, t.table, payloadCol, o.lo)
			end = time.Now()
			ok = err == nil && n == o.wantCount
		case opLocate:
			code, found, err := cl.Locate(t.tenant, t.table, payloadCol, o.lo)
			end = time.Now()
			ok = err == nil && o.locateOK(code, found)
		case opScanEq:
			res, err := cl.ScanEq(t.tenant, t.table, payloadCol, o.lo)
			end = time.Now()
			ok = err == nil && o.scanOK(res.Count, res.Rows)
		case opScanRange:
			res, err := cl.ScanRange(t.tenant, t.table, payloadCol, o.lo, o.hi)
			end = time.Now()
			ok = err == nil && o.scanOK(res.Count, res.Rows)
		case opAppend:
			res, err := cl.Append([]service.AppendItem{{Tenant: t.tenant, Table: t.table, Strs: map[string][]string{payloadCol: o.vals}}})
			end = time.Now()
			ok = err == nil && len(res) == 1 && res[0].OK
		}
		lt.record(o, id, start, end)
		return end.Sub(start), ok
	}
}

func (o *op) locateOK(code uint32, found bool) bool {
	if o.wantFound >= 0 && found != (o.wantFound == 1) {
		return false
	}
	return o.wantCode < 0 || int64(code) == o.wantCode
}

func (o *op) scanOK(count int, rows []int) bool {
	return count == o.wantCount && len(rows) == min(count, maxScanRows) && hashRows(hashSeed, rows) == o.wantHash
}

// handlerTransport is an http.RoundTripper that calls a handler in process:
// service.Client on top of it exercises everything but the network stack.
type handlerTransport struct {
	h  http.Handler
	mu sync.Mutex
	// Body bytes seen: of append requests and of query responses.
	appendReqBytes, queryRespBytes int64
}

type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) WriteHeader(code int)        { r.code = code }
func (r *recorder) Write(p []byte) (int, error) { return r.body.Write(p) }

func (t *handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &recorder{header: make(http.Header), code: http.StatusOK}
	t.h.ServeHTTP(rec, req)
	t.mu.Lock()
	if req.Body != nil {
		req.Body.Close()
		t.appendReqBytes += req.ContentLength
	} else {
		t.queryRespBytes += int64(rec.body.Len())
	}
	t.mu.Unlock()
	return &http.Response{
		Status: http.StatusText(rec.code), StatusCode: rec.code, Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: rec.header, Body: io.NopCloser(&rec.body), ContentLength: int64(rec.body.Len()), Request: req,
	}, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += uint64(info.Size())
		}
		return err
	})
	return n, err
}

// statsDictRatio reads /v1/stats and returns encoded dictionary bytes over
// the raw bytes of the distinct strings, summed over the shards.
func statsDictRatio(cl *service.Client) (float64, error) {
	st, err := cl.Stats()
	if err != nil {
		return 0, err
	}
	var enc, raw float64
	shards, _ := st["shards"].([]any)
	for _, sh := range shards {
		m, _ := sh.(map[string]any)
		e, _ := m["dict_bytes"].(float64)
		r, _ := m["dict_raw_bytes"].(float64)
		enc, raw = enc+e, raw+r
	}
	if raw == 0 {
		return 0, fmt.Errorf("/v1/stats reports no dictionary bytes")
	}
	return enc / raw, nil
}

// runSvc is the untraced run of svc-read or svc-mixed.
func runSvc(name string, sz sizes, seed int64, seconds int, tmp string) (*runResult, error) {
	mixed := name == "svc-mixed"
	res := newResult(name, seed, false)
	var (
		env    *svcEnv
		setups []float64
	)
	for rep := 0; rep < sz.setupReps; rep++ {
		if env != nil {
			env.close()
			env = nil
			runtime.GC()
		}
		start := time.Now()
		var err error
		if env, err = setupSvc(sz, seed, tmp, mixed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer env.close()
	res.setN("setup_s", medianF(setups), len(setups))
	res.SeqHash = seqHash(env.sessions)

	exec := clientExec(env.cl, nil)
	runSessions(env.sessions, 0, env.warm, time.Time{}, exec)
	deadline := time.Now().Add(time.Duration(6*seconds) * time.Second)
	lr := runSessions(env.sessions, env.warm, 1<<30, deadline, exec)
	res.Attempted, res.Failed = lr.attempted, lr.failed
	for k, l := range lr.byKind {
		res.Ops[opKindNames[k]] = len(l)
	}
	if lr.truncated {
		res.Ops["truncated"] = 1
	}
	if mixed {
		res.setLatency(lr.byKind[opAppend], lr.merge(queryKinds...), lr.rates, lr.attempted)
	} else {
		res.setLatency(lr.merge(queryKinds...), lr.merge(opScanEq, opScanRange), lr.rates, lr.attempted)
	}

	ratio, err := statsDictRatio(env.cl)
	if err != nil {
		return nil, err
	}
	res.set("dict_bytes_ratio", ratio)
	user := env.userBytes()
	env.sessions, env.tables = nil, nil
	// Footprint and stored bytes are taken once Close has folded every
	// delta: what is left then follows from the operations, not from where
	// the background merges happened to stand when the clients finished.
	if err := env.stop(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	res.set("heap_mb", heapMB())
	runtime.KeepAlive(env.srv)
	stored, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	res.set("space_ratio", float64(stored)/float64(user))
	return res, nil
}
