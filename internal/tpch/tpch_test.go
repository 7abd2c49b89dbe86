package tpch

import (
	"math"
	"strings"
	"sync"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
)

var (
	storeOnce sync.Once
	testStore *colstore.Store
)

// store returns a shared small TPC-H instance (generation is the expensive
// part of these tests).
func store(t *testing.T) *colstore.Store {
	t.Helper()
	storeOnce.Do(func() {
		testStore = Load(Config{ScaleFactor: 0.02, Seed: 7, InitialFormat: dict.FCInline})
	})
	return testStore
}

func TestDateRoundTrip(t *testing.T) {
	for _, s := range []string{"1992-01-01", "1995-06-17", "1998-08-02"} {
		if got := DateString(Date(s)); got != s {
			t.Errorf("date %s -> %s", s, got)
		}
	}
	if Date("1995-01-02")-Date("1995-01-01") != 1 {
		t.Error("consecutive days differ by != 1")
	}
}

func TestLoadCardinalities(t *testing.T) {
	s := store(t)
	if got := s.Table("region").Rows(); got != 5 {
		t.Errorf("region rows = %d", got)
	}
	if got := s.Table("nation").Rows(); got != 25 {
		t.Errorf("nation rows = %d", got)
	}
	cust := s.Table("customer").Rows()
	ord := s.Table("orders").Rows()
	li := s.Table("lineitem").Rows()
	if cust != 3000 {
		t.Errorf("customer rows = %d, want 3000 at SF 0.02", cust)
	}
	if ord != 30000 {
		t.Errorf("orders rows = %d", ord)
	}
	// ~4 lineitems per order.
	if li < 2*ord || li > 8*ord {
		t.Errorf("lineitem rows = %d for %d orders", li, ord)
	}
	// Keys are VARCHAR(10), the paper's schema modification.
	if got := s.Table("orders").Str("o_orderkey").Get(0); len(got) != 10 {
		t.Errorf("o_orderkey %q is not VARCHAR(10)", got)
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := Load(Config{ScaleFactor: 0.002, Seed: 3, InitialFormat: dict.Array})
	b := Load(Config{ScaleFactor: 0.002, Seed: 3, InitialFormat: dict.Array})
	ca, cb := a.Table("lineitem").Str("l_comment"), b.Table("lineitem").Str("l_comment")
	if ca.Len() != cb.Len() {
		t.Fatal("row counts differ across equal seeds")
	}
	for i := 0; i < ca.Len(); i += 97 {
		if ca.Get(i) != cb.Get(i) {
			t.Fatalf("row %d differs", i)
		}
	}
}

func TestAllQueriesRun(t *testing.T) {
	s := store(t)
	results := RunAll(s)
	if len(results) != 22 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		if r.Query != i+1 {
			t.Errorf("result %d has query number %d", i, r.Query)
		}
	}
	// Queries that must be non-empty at this scale.
	for _, num := range []int{1, 3, 4, 5, 6, 10, 12, 13, 14, 16, 19, 22} {
		if len(results[num-1].Rows) == 0 {
			t.Errorf("Q%d returned no rows", num)
		}
	}
}

// TestQ1BruteForce re-computes Q1 with direct string materialization and
// compares against the code-based plan.
func TestQ1BruteForce(t *testing.T) {
	s := store(t)
	lt := s.Table("lineitem")
	cutoff := Date("1998-12-01") - 90
	type agg struct {
		qty float64
		n   int
	}
	want := make(map[string]*agg)
	for row := 0; row < lt.Rows(); row++ {
		if lt.Int("l_shipdate").Get(row) > cutoff {
			continue
		}
		k := lt.Str("l_returnflag").Get(row) + "|" + lt.Str("l_linestatus").Get(row)
		a := want[k]
		if a == nil {
			a = &agg{}
			want[k] = a
		}
		a.qty += lt.Float("l_quantity").Get(row)
		a.n++
	}
	res := q1(s)
	if len(res.Rows) != len(want) {
		t.Fatalf("%d groups, want %d", len(res.Rows), len(want))
	}
	for _, r := range res.Rows {
		a := want[r[0]+"|"+r[1]]
		if a == nil {
			t.Fatalf("unexpected group %v", r[:2])
		}
		if math.Abs(parseF(r[2])-a.qty) > 0.5 {
			t.Errorf("group %v sum_qty %s, want %.2f", r[:2], r[2], a.qty)
		}
		if parseF(r[9]) != float64(a.n) {
			t.Errorf("group %v count %s, want %d", r[:2], r[9], a.n)
		}
	}
}

// TestQ6BruteForce checks the pure-numeric query exactly.
func TestQ6BruteForce(t *testing.T) {
	s := store(t)
	lt := s.Table("lineitem")
	lo, hi := Date("1994-01-01"), Date("1995-01-01")
	var want float64
	for row := 0; row < lt.Rows(); row++ {
		d := lt.Int("l_shipdate").Get(row)
		disc := lt.Float("l_discount").Get(row)
		if d >= lo && d < hi && disc >= 0.05-1e-9 && disc <= 0.07+1e-9 &&
			lt.Float("l_quantity").Get(row) < 24 {
			want += lt.Float("l_extendedprice").Get(row) * disc
		}
	}
	got := parseF(q6(s).Rows[0][0])
	if math.Abs(got-want) > 0.5 {
		t.Fatalf("Q6 = %.2f, want %.2f", got, want)
	}
}

// TestQ3BruteForce verifies the three-table join against a direct
// string-based evaluation.
func TestQ3BruteForce(t *testing.T) {
	s := store(t)
	cutoff := Date("1995-03-15")
	ct, ot, lt := s.Table("customer"), s.Table("orders"), s.Table("lineitem")

	buildingCust := make(map[string]bool)
	for row := 0; row < ct.Rows(); row++ {
		if ct.Str("c_mktsegment").Get(row) == "BUILDING" {
			buildingCust[ct.Str("c_custkey").Get(row)] = true
		}
	}
	orderPass := make(map[string]bool)
	orderDate := make(map[string]int64)
	for row := 0; row < ot.Rows(); row++ {
		if ot.Int("o_orderdate").Get(row) < cutoff &&
			buildingCust[ot.Str("o_custkey").Get(row)] {
			k := ot.Str("o_orderkey").Get(row)
			orderPass[k] = true
			orderDate[k] = ot.Int("o_orderdate").Get(row)
		}
	}
	want := make(map[string]float64)
	for row := 0; row < lt.Rows(); row++ {
		if lt.Int("l_shipdate").Get(row) <= cutoff {
			continue
		}
		k := lt.Str("l_orderkey").Get(row)
		if orderPass[k] {
			want[k] += lt.Float("l_extendedprice").Get(row) * (1 - lt.Float("l_discount").Get(row))
		}
	}

	res := q3(s)
	if len(res.Rows) == 0 && len(want) > 0 {
		t.Fatal("Q3 empty but brute force found rows")
	}
	for _, r := range res.Rows {
		w, ok := want[r[0]]
		if !ok {
			t.Fatalf("unexpected order %s in Q3", r[0])
		}
		if math.Abs(parseF(r[1])-w) > 0.5 {
			t.Errorf("order %s revenue %s, want %.2f", r[0], r[1], w)
		}
		if r[2] != DateString(orderDate[r[0]]) {
			t.Errorf("order %s date %s, want %s", r[0], r[2], DateString(orderDate[r[0]]))
		}
	}
}

// TestQ14BruteForce verifies the part join and the CASE aggregation.
func TestQ14BruteForce(t *testing.T) {
	s := store(t)
	pt, lt := s.Table("part"), s.Table("lineitem")
	lo, hi := Date("1995-09-01"), Date("1995-10-01")
	promoOf := make(map[string]bool)
	for row := 0; row < pt.Rows(); row++ {
		promoOf[pt.Str("p_partkey").Get(row)] =
			strings.HasPrefix(pt.Str("p_type").Get(row), "PROMO")
	}
	var promo, total float64
	for row := 0; row < lt.Rows(); row++ {
		d := lt.Int("l_shipdate").Get(row)
		if d < lo || d >= hi {
			continue
		}
		v := lt.Float("l_extendedprice").Get(row) * (1 - lt.Float("l_discount").Get(row))
		total += v
		if promoOf[lt.Str("l_partkey").Get(row)] {
			promo += v
		}
	}
	want := 100 * promo / total
	got := parseF(q14(s).Rows[0][0])
	if math.Abs(got-want) > 0.1 {
		t.Fatalf("Q14 = %.2f, want %.2f", got, want)
	}
}

// TestWorkloadTracingCounts runs on a store of its own, not the shared
// fixture: which columns carry the traffic depends on whether the joins'
// dictionary translations are already cached, i.e. on what ran before.
func TestWorkloadTracingCounts(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.005, Seed: 7, InitialFormat: dict.FCInline})
	pass := func() (keyTraffic, total uint64) {
		s.ResetStats()
		RunAll(s)
		var extracts, locates uint64
		for _, c := range s.StringColumns() {
			st := c.Stats()
			extracts += st.Extracts
			locates += st.Locates
			if strings.Contains(c.Name(), "key") {
				keyTraffic += st.Extracts + st.Locates
			}
		}
		if extracts == 0 || locates == 0 {
			t.Fatalf("workload produced no dictionary traffic: e=%d l=%d", extracts, locates)
		}
		return keyTraffic, extracts + locates
	}
	// Cold pass: every join translates its dictionary pair once, so the key
	// columns dominate the traffic.
	if keyTraffic, total := pass(); keyTraffic*2 < total {
		t.Errorf("cold pass: key columns carry only %d of %d dictionary ops", keyTraffic, total)
	}
	// Warm pass: the translations are cached, and what is left on the key
	// columns is their share of output materialization.
	if keyTraffic, total := pass(); keyTraffic*2 >= total {
		t.Errorf("warm pass: key columns still carry %d of %d dictionary ops", keyTraffic, total)
	}
}

func TestReconfigureChangesFormats(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.005, Seed: 1, InitialFormat: dict.FCInline})
	lifetime := float64(TraceWorkload(s, 1))

	mgr := core.NewManager(core.Options{DesiredFreeBytes: 1 << 30})
	mgr.SetC(1e-3)
	smallCfg := Reconfigure(s, mgr, lifetime, 1.0, 1)
	smallBytes := DictionaryBytes(s)

	mgr.SetC(10)
	Reconfigure(s, mgr, lifetime, 1.0, 1)
	fastBytes := DictionaryBytes(s)

	if smallBytes >= fastBytes {
		t.Errorf("c=0.001 config (%d bytes) not smaller than c=10 config (%d bytes)",
			smallBytes, fastBytes)
	}
	if len(smallCfg) != len(s.StringColumns()) {
		t.Errorf("configuration covers %d of %d columns", len(smallCfg), len(s.StringColumns()))
	}
	// Queries still correct after reconfiguration.
	if rows := q1(s).Rows; len(rows) == 0 {
		t.Error("Q1 empty after reconfiguration")
	}
}

func TestSetAllFormats(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.002, Seed: 2, InitialFormat: dict.Array})
	SetAllFormats(s, dict.FCBlock)
	for f, n := range FormatDistribution(s) {
		if f != dict.FCBlock && n > 0 {
			t.Fatalf("%d columns still in %s", n, f)
		}
	}
}

func TestRunWorkloadReturnsTime(t *testing.T) {
	s := store(t)
	if d := RunWorkload(s, 1); d <= 0 {
		t.Fatalf("workload duration %v", d)
	}
}
