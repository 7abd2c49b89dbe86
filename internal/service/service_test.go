package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

func newTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, &Client{Base: ts.URL, HTTP: ts.Client()}
}

func oneItem(tenant, table string, names []string) AppendItem {
	return AppendItem{
		Tenant: tenant,
		Table:  table,
		Strs:   map[string][]string{"name": names},
		Ints:   map[string][]int64{"n": seqInts(len(names))},
	}
}

func seqInts(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// TestServiceSmoke is the tier-1 end-to-end check: batched append across
// shards, the three query endpoints, stats/health, and the no-leak pin
// invariant.
func TestServiceSmoke(t *testing.T) {
	srv, cl := newTestServer(t, Options{Shards: 2, GossipInterval: -1})

	res, err := cl.Append([]AppendItem{
		oneItem("acme", "orders", []string{"alpha", "beta", "alpha", "gamma"}),
		oneItem("globex", "orders", []string{"delta", "delta"}),
	})
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	for i, r := range res {
		if !r.OK {
			t.Fatalf("append item %d failed: %s", i, r.Error)
		}
	}

	sc, err := cl.ScanEq("acme", "orders", "name", "alpha")
	if err != nil || sc.Count != 2 {
		t.Fatalf("scan eq alpha: count=%d err=%v", sc.Count, err)
	}
	if len(sc.Rows) != 2 || sc.Rows[0] != 0 || sc.Rows[1] != 2 {
		t.Fatalf("scan rows = %v", sc.Rows)
	}
	rc, err := cl.ScanRange("acme", "orders", "name", "b", "e")
	if err != nil || rc.Count != 1 { // only "beta" in [b, e)
		t.Fatalf("scan range: count=%d err=%v", rc.Count, err)
	}
	n, err := cl.CountEq("globex", "orders", "name", "delta")
	if err != nil || n != 2 {
		t.Fatalf("count: %d err=%v", n, err)
	}
	// Locate resolves against the pinned main dictionary: values still in
	// the delta have no stable code yet.
	if _, found, err := cl.Locate("acme", "orders", "name", "gamma"); err != nil || found {
		t.Fatalf("locate of delta-resident value: found=%v err=%v", found, err)
	}
	if _, found, _ := cl.Locate("acme", "orders", "name", "nope"); found {
		t.Fatal("locate found a value never appended")
	}

	// Unknown column is a 404, not a panic, and leaks no snapshot.
	if _, err := cl.CountEq("acme", "orders", "nope", "x"); err == nil {
		t.Fatal("count on unknown column should fail")
	}
	if st, err := cl.Stats(); err != nil || st["shards"] == nil {
		t.Fatalf("stats: %v %v", st, err)
	}
	if state, ok, err := cl.Health(); err != nil || !ok || state != "healthy" {
		t.Fatalf("health: %s ok=%v err=%v", state, ok, err)
	}
	if live := srv.PinnedSnapshots(); live != 0 {
		t.Fatalf("pinned snapshots leaked: %d", live)
	}
	if srv.TotalPins() == 0 {
		t.Fatal("queries took no pins")
	}
}

// TestRoutingStableAcrossRestart checks the shard-routing invariant: the
// same (tenant, table) routes to the same shard across a full server
// restart, and the rows land back in the recovered shard.
func TestRoutingStableAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	pairs := [][2]string{
		{"t0", "a"}, {"t0", "b"}, {"t1", "a"}, {"t2", "x"}, {"t3", "y"}, {"", "bare"},
	}
	opts := Options{Shards: 4, Dir: dir, GossipInterval: -1, NoDaemons: true}

	srv, cl := func() (*Server, *Client) {
		srv, err := New(opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		return srv, &Client{Base: ts.URL, HTTP: ts.Client()}
	}()

	route := map[[2]string]int{}
	for _, p := range pairs {
		route[p] = srv.ShardFor(p[0], p[1])
		if _, err := cl.Append([]AppendItem{oneItem(p[0], p[1], []string{"v-" + p[0], "v-" + p[0]})}); err != nil {
			t.Fatalf("append %v: %v", p, err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	srv2, cl2 := newTestServer(t, opts)
	for _, p := range pairs {
		if got := srv2.ShardFor(p[0], p[1]); got != route[p] {
			t.Fatalf("pair %v routed to shard %d before restart, %d after", p, route[p], got)
		}
		n, err := cl2.CountEq(p[0], p[1], "name", "v-"+p[0])
		if err != nil || n != 2 {
			t.Fatalf("pair %v lost rows after restart: n=%d err=%v", p, n, err)
		}
	}
}

// TestConcurrentDistinctShardAppends hammers distinct (tenant, table)
// pairs from many goroutines; with per-shard locking this must be
// race-clean (the race detector enforces it in check builds) and lose no
// rows.
func TestConcurrentDistinctShardAppends(t *testing.T) {
	srv, cl := newTestServer(t, Options{Shards: 4, GossipInterval: -1})
	const writers, batches, rowsPer = 8, 10, 32

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w)
			vals := make([]string, rowsPer)
			for i := range vals {
				vals[i] = fmt.Sprintf("v-%d-%d", w, i%7)
			}
			for b := 0; b < batches; b++ {
				if _, err := cl.Append([]AppendItem{oneItem(tenant, "events", vals)}); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := uint64(0)
	for i := 0; i < srv.NumShards(); i++ {
		total += srv.ShardRows(i)
	}
	if want := uint64(writers * batches * rowsPer); total != want {
		t.Fatalf("ingested %d rows across shards, want %d", total, want)
	}
	for w := 0; w < writers; w++ {
		tenant := fmt.Sprintf("tenant-%d", w)
		n, err := cl.CountEq(tenant, "events", "name", fmt.Sprintf("v-%d-0", w))
		if err != nil {
			t.Fatalf("count %s: %v", tenant, err)
		}
		if want := batches * (rowsPer/7 + 1); n != want { // i%7==0 hits ceil(32/7)=5 per batch
			t.Fatalf("tenant %s: count=%d want %d", tenant, n, want)
		}
	}
}

// TestReadOnlyShard503 forces one shard read-only and checks the contract:
// appends owned by it fail with 503, appends owned by other shards keep
// ingesting, and queries against the read-only shard still serve.
func TestReadOnlyShard503(t *testing.T) {
	srv, cl := newTestServer(t, Options{Shards: 4, GossipInterval: -1})

	// Find two tenants on different shards.
	roTenant, okTenant := "", ""
	for i := 0; i < 64 && (roTenant == "" || okTenant == ""); i++ {
		tn := fmt.Sprintf("tenant-%d", i)
		switch srv.ShardFor(tn, "logs") {
		case 0:
			if roTenant == "" {
				roTenant = tn
			}
		default:
			if okTenant == "" {
				okTenant = tn
			}
		}
	}
	if roTenant == "" || okTenant == "" {
		t.Fatal("could not find tenants on distinct shards")
	}
	if _, err := cl.Append([]AppendItem{oneItem(roTenant, "logs", []string{"pre"})}); err != nil {
		t.Fatalf("pre-RO append: %v", err)
	}

	srv.SetShardReadOnly(0, true)
	_, err := cl.Append([]AppendItem{oneItem(roTenant, "logs", []string{"x"})})
	if !IsUnavailable(err) {
		t.Fatalf("append to read-only shard: want 503, got %v", err)
	}
	if _, err := cl.Append([]AppendItem{oneItem(okTenant, "logs", []string{"y", "y"})}); err != nil {
		t.Fatalf("append to healthy shard during RO: %v", err)
	}
	// Queries on the read-only shard still work, from a pinned snapshot.
	if n, err := cl.CountEq(roTenant, "logs", "name", "pre"); err != nil || n != 1 {
		t.Fatalf("query on read-only shard: n=%d err=%v", n, err)
	}
	if state, ok, err := cl.Health(); err != nil || !ok || state != "readonly" {
		t.Fatalf("health during partial RO: %s ok=%v err=%v", state, ok, err)
	}

	srv.SetShardReadOnly(0, false)
	if _, err := cl.Append([]AppendItem{oneItem(roTenant, "logs", []string{"back"})}); err != nil {
		t.Fatalf("append after clearing RO: %v", err)
	}
	if live := srv.PinnedSnapshots(); live != 0 {
		t.Fatalf("pinned snapshots leaked: %d", live)
	}
}

// TestSnapshotReleasedOnErrorPaths drives requests that fail after the
// snapshot pin (bad scan predicate) and checks no pin leaks.
func TestSnapshotReleasedOnErrorPaths(t *testing.T) {
	srv, cl := newTestServer(t, Options{Shards: 2, GossipInterval: -1})
	if _, err := cl.Append([]AppendItem{oneItem("a", "t", []string{"x"})}); err != nil {
		t.Fatalf("append: %v", err)
	}
	// A scan with neither eq nor lo/hi 400s after the pin was taken.
	var out map[string]any
	err := cl.get("/v1/scan", queryArgs("a", "t", "name"), &out)
	if err == nil {
		t.Fatal("scan without predicate should 400")
	}
	if live := srv.PinnedSnapshots(); live != 0 {
		t.Fatalf("pin leaked on error path: %d", live)
	}
	if srv.TotalPins() == 0 {
		t.Fatal("error-path scan never pinned")
	}
}

// TestWrappedStores covers NewWithStores: the torture harness's embedding
// mode, where the server fronts pre-existing stores with the empty tenant.
func TestWrappedStores(t *testing.T) {
	st := colstore.NewStore()
	tb := st.AddTable("t")
	c := tb.AddString("c", dict.Array)
	for _, v := range []string{"a", "b", "a"} {
		c.Append(v)
	}
	c.Merge(dict.Array)
	srv := NewWithStores([]*colstore.Store{st}, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTP: ts.Client()}

	if n, err := cl.CountEq("", "t", "c", "a"); err != nil || n != 2 {
		t.Fatalf("wrapped count: n=%d err=%v", n, err)
	}
	sc, err := cl.ScanEq("", "t", "c", "b")
	if err != nil || sc.Count != 1 || sc.Rows[0] != 1 {
		t.Fatalf("wrapped scan: %+v err=%v", sc, err)
	}
	if _, found, err := cl.Locate("", "t", "c", "b"); err != nil || !found {
		t.Fatalf("locate merged value: found=%v err=%v", found, err)
	}
	if live := srv.PinnedSnapshots(); live != 0 {
		t.Fatalf("pin leak: %d", live)
	}
}

// TestScanTruncation takes /v1/scan's cap branch: a predicate matching more
// than MaxScanRows rows returns exactly the first MaxScanRows indices the
// engine's scan yields, flags the truncation, and still reports the full
// match count.
func TestScanTruncation(t *testing.T) {
	st := colstore.NewStore()
	c := st.AddTable("t").AddString("c", dict.Array)
	const rows = MaxScanRows + MaxScanRows/2
	for i := 0; i < rows; i++ {
		if i == rows/2 {
			c.Merge(dict.FCBlock) // matches span the main part and the delta
		}
		if i%4 == 0 {
			c.Append("cold")
		} else {
			c.Append("hot")
		}
	}
	srv := NewWithStores([]*colstore.Store{st}, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTP: ts.Client()}

	snap := c.Snapshot()
	want := snap.ScanEq("hot", nil)
	snap.Release()
	if len(want) <= MaxScanRows {
		t.Fatalf("fixture matches %d rows, need more than %d", len(want), MaxScanRows)
	}
	sc, err := cl.ScanEq("", "t", "c", "hot")
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !sc.Truncated || sc.Count != len(want) || len(sc.Rows) != MaxScanRows {
		t.Fatalf("scan: truncated=%v count=%d rows=%d, want true, %d, %d",
			sc.Truncated, sc.Count, len(sc.Rows), len(want), MaxScanRows)
	}
	for i, r := range sc.Rows {
		if r != want[i] {
			t.Fatalf("row %d = %d, engine scan has %d", i, r, want[i])
		}
	}
	under, err := cl.ScanEq("", "t", "c", "cold")
	if err != nil || under.Truncated || len(under.Rows) != under.Count {
		t.Fatalf("uncapped scan: truncated=%v count=%d rows=%d err=%v",
			under.Truncated, under.Count, len(under.Rows), err)
	}
}

// TestStatsRacesAppends holds the shard-lock rule for Store.Bytes: numeric
// columns are plain slices that shard.apply grows under the shard's write
// lock, so /v1/stats (and the gossip loop, which makes the same call) must
// size the store under the read side. Run with -race: before the read lock
// was taken, this loop reported (*Int64Column).Bytes racing Append.
func TestStatsRacesAppends(t *testing.T) {
	_, cl := newTestServer(t, Options{Shards: 1, GossipInterval: time.Millisecond})
	item := oneItem("acme", "orders", []string{"alpha", "beta"})
	if _, err := cl.Append([]AppendItem{item}); err != nil { // creates the table
		t.Fatalf("append: %v", err)
	}

	const rounds = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			if _, err := cl.Append([]AppendItem{item}); err != nil {
				done <- fmt.Errorf("append %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < rounds; i++ {
		if _, err := cl.Stats(); err != nil {
			t.Fatalf("stats %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestStatsLeavesAccessTrace: /v1/stats sums each dictionary's raw bytes,
// a maintenance read. The merge-time format choice prices a column's
// extract and locate counters as query work, so three stats calls must
// leave every column's counters where they were, and report the same raw
// size each time.
func TestStatsLeavesAccessTrace(t *testing.T) {
	st := colstore.NewStore()
	srv := NewWithStores([]*colstore.Store{st}, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTP: ts.Client()}

	names := []string{"alpha", "beta", "gamma", "delta"}
	if _, err := cl.Append([]AppendItem{oneItem("acme", "orders", names)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	cols := st.StringColumns()
	if len(cols) != 1 {
		t.Fatalf("store has %d string columns, want 1", len(cols))
	}
	for _, c := range cols {
		c.Merge(c.Format())
	}
	before := make([]colstore.AccessStats, len(cols))
	for i, c := range cols {
		before[i] = c.Stats()
	}
	const wantRaw = len("alpha") + len("beta") + len("gamma") + len("delta")
	for call := 0; call < 3; call++ {
		out, err := cl.Stats()
		if err != nil {
			t.Fatalf("stats %d: %v", call, err)
		}
		shard := out["shards"].([]any)[0].(map[string]any)
		if raw := shard["dict_raw_bytes"]; raw != float64(wantRaw) {
			t.Fatalf("stats %d: dict_raw_bytes = %v, want %d", call, raw, wantRaw)
		}
	}
	for i, c := range cols {
		if got := c.Stats(); got != before[i] {
			t.Fatalf("column %s: /v1/stats moved the access counters from %+v to %+v", c.Name(), before[i], got)
		}
	}
}

// TestRejectedAppendLeavesTableAligned holds the append contract: an item is
// applied to all of its columns or to none. An item whose column set has the
// schema's arity but names an unknown column — in any of the three maps, or
// one name in two of them — is rejected before the first row lands, and the
// next valid item lands aligned.
func TestRejectedAppendLeavesTableAligned(t *testing.T) {
	st := colstore.NewStore()
	srv := NewWithStores([]*colstore.Store{st}, Options{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := &Client{Base: ts.URL, HTTP: ts.Client()}

	valid := func() AppendItem {
		return AppendItem{
			Table:  "t",
			Strs:   map[string][]string{"a": {"x"}, "b": {"y"}},
			Ints:   map[string][]int64{"i": {1}},
			Floats: map[string][]float64{"f": {0.5}},
		}
	}
	if res, err := cl.Append([]AppendItem{valid()}); err != nil || !res[0].OK {
		t.Fatalf("creating append: %+v err=%v", res, err)
	}
	tb := st.Table("t")
	lens := func() [4]int {
		return [4]int{tb.Str("a").Len(), tb.Str("b").Len(), tb.Int("i").Len(), tb.Float("f").Len()}
	}

	bad := map[string]AppendItem{"strs": valid(), "ints": valid(), "floats": valid(), "twice-named": valid()}
	bad["twice-named"].Ints["a"] = bad["twice-named"].Ints["i"]
	delete(bad["twice-named"].Ints, "i")
	bad["strs"].Strs["z"] = bad["strs"].Strs["b"]
	delete(bad["strs"].Strs, "b")
	bad["ints"].Ints["j"] = bad["ints"].Ints["i"]
	delete(bad["ints"].Ints, "i")
	bad["floats"].Floats["g"] = bad["floats"].Floats["f"]
	delete(bad["floats"].Floats, "f")
	for kind, item := range bad {
		res, err := cl.Append([]AppendItem{item})
		if err == nil || len(res) != 1 || res[0].OK {
			t.Fatalf("unknown %s column: results %+v err=%v, want a rejected item", kind, res, err)
		}
		if got := lens(); got != [4]int{1, 1, 1, 1} {
			t.Fatalf("unknown %s column: rejected item moved column lengths to %v (a b i f)", kind, got)
		}
	}

	if res, err := cl.Append([]AppendItem{valid()}); err != nil || !res[0].OK {
		t.Fatalf("valid append after rejections: %+v err=%v", res, err)
	}
	if got := lens(); got != [4]int{2, 2, 2, 2} || tb.Rows() != 2 {
		t.Fatalf("after a valid append: lengths %v (a b i f), Rows %d, want all 2", got, tb.Rows())
	}
}

// TestAppendRejectsNUL: dictionaries cannot store a NUL byte, so an item
// with one in a string value is rejected with 400 naming the column and
// lands no row, while the rest of the batch lands. Accepted, such a value
// made the next merge build a dictionary over input dict.Build forbids, and
// counts and Gets on the column went wrong.
func TestAppendRejectsNUL(t *testing.T) {
	srv, cl := newTestServer(t, Options{Shards: 2, NoDaemons: true})
	res, err := cl.Append([]AppendItem{
		oneItem("acme", "nul", []string{"a\x00b", "a", "a\x00", "zz"}),
		oneItem("acme", "ok", []string{"a", "zz"}),
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("append with a NUL value: err = %v, want HTTP 400", err)
	}
	if len(res) != 2 || res[0].OK || !strings.Contains(res[0].Error, `"name"`) || !res[1].OK {
		t.Fatalf("results %+v: want item 0 rejected naming column \"name\", item 1 landed", res)
	}
	var rows uint64
	for i := 0; i < srv.NumShards(); i++ {
		rows += srv.ShardRows(i)
	}
	if rows != 2 {
		t.Fatalf("shards hold %d rows, want the 2 of the valid item", rows)
	}
	if _, err := cl.CountEq("acme", "nul", "name", "a"); err == nil {
		t.Fatal("the rejected item created its table")
	}
}

// TestScanRangeNeedsHi: a range scan with lo= alone is a 400 naming hi=.
// Read as hi="", it matched nothing and answered 200 with count 0 over
// values that lie above lo. A missing lo is "", the smallest string.
func TestScanRangeNeedsHi(t *testing.T) {
	srv, cl := newTestServer(t, Options{Shards: 2, NoDaemons: true})
	if _, err := cl.Append([]AppendItem{oneItem("a", "t", []string{"alpha", "beta", "gamma"})}); err != nil {
		t.Fatalf("append: %v", err)
	}
	q := queryArgs("a", "t", "name")
	q.Set("lo", "b")
	var out ScanResult
	err := cl.get("/v1/scan", q, &out)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Body, "hi=") {
		t.Fatalf("scan with lo=b alone: %+v err = %v, want HTTP 400 naming hi=", out, err)
	}
	q = queryArgs("a", "t", "name")
	q.Set("hi", "c")
	if err := cl.get("/v1/scan", q, &out); err != nil || out.Count != 2 || !slices.Equal(out.Rows, []int{0, 1}) {
		t.Fatalf("scan with hi=c alone: %+v err = %v, want rows 0 and 1", out, err)
	}
	if live := srv.PinnedSnapshots(); live != 0 {
		t.Fatalf("pinned snapshots leaked: %d", live)
	}
}

// TestScanBodyMatchesEncodingJSON pins appendScanBody to the bytes
// json.Encoder writes for the same keys in a map, which was the body
// before it, and parseScanBody to reading them back.
func TestScanBodyMatchesEncodingJSON(t *testing.T) {
	capped := make([]int, MaxScanRows)
	for i := range capped {
		capped[i] = 3 * i
	}
	cases := map[string]ScanResult{
		"no rows":      {Shard: 1, Rows: nil},
		"one row":      {Count: 1, Rows: []int{7}},
		"truncated":    {Shard: 3, Count: MaxScanRows + 1, Rows: capped, Truncated: true},
		"shard >= 10":  {Shard: 12, Count: 2, Rows: []int{0, 99}},
		"rows >= 2^31": {Shard: 5, Count: 3, Rows: []int{1 << 31, 1<<31 + 1, 1 << 40}},
	}
	for name, res := range cases {
		rows := res.Rows
		if rows == nil {
			rows = []int{}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{
			"shard": res.Shard, "count": res.Count, "rows": rows, "truncated": res.Truncated,
		}); err != nil {
			t.Fatal(err)
		}
		got := appendScanBody(nil, res)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: appendScanBody wrote\n%.200s\nencoding/json writes\n%.200s", name, got, want.Bytes())
		}
		back, err := parseScanBody(got)
		res.Rows = rows
		if err != nil || !reflect.DeepEqual(back, res) {
			t.Fatalf("%s: parseScanBody = %+v, %v; want %+v", name, back, err, res)
		}
	}
}

// lengthRecorder is a RoundTripper that keeps the Content-Length of the
// last response it saw (-1 when the body was sent without one).
type lengthRecorder struct {
	http.RoundTripper
	last int64
}

func (l *lengthRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := l.RoundTripper.RoundTrip(r)
	if err == nil {
		l.last = resp.ContentLength
	}
	return resp, err
}

// TestClientReadsSizedChunkedAndShortBodies: the client reads a body into
// a buffer of its Content-Length, falls back to reading a chunked body
// whole, and reports a body shorter than its Content-Length as an error
// rather than waiting for bytes that never come.
func TestClientReadsSizedChunkedAndShortBodies(t *testing.T) {
	want := ScanResult{Shard: 1, Count: 3, Rows: []int{2, 5, 9}}
	body := appendScanBody(nil, want)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("eq") {
		case "sized":
			writeScanBody(w, want)
		case "chunked":
			w.Write(body[:5])
			w.(http.Flusher).Flush() // headers go out before the length is known
			w.Write(body[5:])
		case "short":
			w.Header().Set("Content-Length", fmt.Sprint(len(body)+10))
			w.Write(body)
		}
	}))
	defer ts.Close()
	rec := &lengthRecorder{RoundTripper: ts.Client().Transport}
	cl := &Client{Base: ts.URL, HTTP: &http.Client{Transport: rec, Timeout: 10 * time.Second}}

	for _, c := range []struct {
		probe  string
		length int64
	}{{"sized", int64(len(body))}, {"chunked", -1}} {
		got, err := cl.ScanEq("t", "x", "c", c.probe)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s body: ScanEq = %+v, %v; want %+v", c.probe, got, err, want)
		}
		if rec.last != c.length {
			t.Fatalf("%s body: Content-Length %d, want %d", c.probe, rec.last, c.length)
		}
	}
	start := time.Now()
	_, err := cl.ScanEq("t", "x", "c", "short")
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("short body took %v to fail", d)
	}
}
