package tpch

import (
	"context"
	"testing"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

// TestAccessProfile pins the dictionary access profile of the workload — the
// extracts and locates each column sees — on a fresh store. The profile is
// the compression manager's time-model input, so a plan change that shifts it
// shifts every chosen format; it also proves every plan flushes its trace
// counters.
//
// The cold pass translates each (foreign key, key) dictionary pair once,
// whichever of the plans joining it runs first: DictLen(fk) extracts on the
// foreign key and as many locates on the key. Before Join cached the
// translation every joining plan paid it, so against the numbers pinned then
// each join column moved by "translations per pass N -> 1":
//
//	l_orderkey  -> o_orderkey   N = 10  (3,000 distinct: 30,000 -> 3,000)
//	o_custkey   -> c_custkey    N = 8   (200: 1,600 -> 200)
//	l_suppkey   -> s_suppkey    N = 7   (20: 140 -> 20)
//	l_partkey   -> p_partkey    N = 6   (400: 2,400 -> 400)
//	ps_suppkey  -> s_suppkey    N = 5   (20: 100 -> 20; s_suppkey locates 240 -> 40)
//	ps_partkey  -> p_partkey    N = 4   (400: 1,600 -> 400; p_partkey locates 4,000 -> 800)
//	s_nationkey -> n_nationkey  N = 8   (13: 104 -> 13)
//	c_nationkey -> n_nationkey  N = 4   (25: 100 -> 25; n_nationkey locates 204 -> 38)
//
// Prefix predicates then became code ranges (PrefixSet) and IN-lists value
// sets (ValueSet), each moving its column by "N extracts -> 2 locates per
// predicate" (N = DictLen; an IN-list is one locate per value):
//
//	p_type       q14 PROMO%, q16 MEDIUM POLISHED%  (137: 460 -> 186 extracts, 1 -> 5 locates)
//	p_name       q20 forest%                       (400: 800 -> 400 extracts, 0 -> 2 locates)
//	c_phone      q22, seven country-code prefixes  (200 + 109 per-row group-key extracts: 397 -> 88, 0 -> 14 locates)
//	p_container  q19, three 4-value IN-lists       (40: 120 -> 0 extracts, 1 -> 13 locates)
//
// Every other entry — constant predicates, CodeSets, output materialization
// — is what it was. A second, warm pass hits the cache on every join: the
// eight foreign keys and the keys no plan prints (p_partkey, n_nationkey)
// gain nothing, and the keys that also appear in output gain exactly their
// output extracts.
func TestAccessProfile(t *testing.T) {
	want := map[string]colstore.AccessStats{
		"region.r_regionkey":      {Extracts: 3, Locates: 0},
		"region.r_name":           {Extracts: 0, Locates: 3},
		"region.r_comment":        {Extracts: 0, Locates: 0},
		"nation.n_nationkey":      {Extracts: 0, Locates: 38},
		"nation.n_name":           {Extracts: 65, Locates: 6},
		"nation.n_regionkey":      {Extracts: 0, Locates: 3},
		"nation.n_comment":        {Extracts: 0, Locates: 0},
		"supplier.s_suppkey":      {Extracts: 1, Locates: 40},
		"supplier.s_name":         {Extracts: 1, Locates: 0},
		"supplier.s_address":      {Extracts: 1, Locates: 0},
		"supplier.s_nationkey":    {Extracts: 13, Locates: 0},
		"supplier.s_phone":        {Extracts: 1, Locates: 0},
		"supplier.s_comment":      {Extracts: 20, Locates: 0},
		"customer.c_custkey":      {Extracts: 88, Locates: 200},
		"customer.c_name":         {Extracts: 88, Locates: 0},
		"customer.c_address":      {Extracts: 88, Locates: 0},
		"customer.c_nationkey":    {Extracts: 25, Locates: 0},
		"customer.c_phone":        {Extracts: 88, Locates: 14},
		"customer.c_mktsegment":   {Extracts: 0, Locates: 1},
		"customer.c_comment":      {Extracts: 88, Locates: 0},
		"part.p_partkey":          {Extracts: 0, Locates: 800},
		"part.p_name":             {Extracts: 400, Locates: 2},
		"part.p_mfgr":             {Extracts: 0, Locates: 0},
		"part.p_brand":            {Extracts: 49, Locates: 5},
		"part.p_type":             {Extracts: 186, Locates: 5},
		"part.p_container":        {Extracts: 0, Locates: 13},
		"part.p_comment":          {Extracts: 0, Locates: 0},
		"partsupp.ps_partkey":     {Extracts: 400, Locates: 0},
		"partsupp.ps_suppkey":     {Extracts: 20, Locates: 0},
		"partsupp.ps_comment":     {Extracts: 0, Locates: 0},
		"orders.o_orderkey":       {Extracts: 22, Locates: 3000},
		"orders.o_custkey":        {Extracts: 200, Locates: 0},
		"orders.o_orderstatus":    {Extracts: 0, Locates: 1},
		"orders.o_orderpriority":  {Extracts: 5, Locates: 2},
		"orders.o_clerk":          {Extracts: 0, Locates: 0},
		"orders.o_comment":        {Extracts: 2978, Locates: 0},
		"lineitem.l_orderkey":     {Extracts: 3000, Locates: 0},
		"lineitem.l_partkey":      {Extracts: 400, Locates: 0},
		"lineitem.l_suppkey":      {Extracts: 20, Locates: 0},
		"lineitem.l_returnflag":   {Extracts: 4, Locates: 1},
		"lineitem.l_linestatus":   {Extracts: 4, Locates: 0},
		"lineitem.l_shipinstruct": {Extracts: 0, Locates: 1},
		"lineitem.l_shipmode":     {Extracts: 2, Locates: 4},
		"lineitem.l_comment":      {Extracts: 0, Locates: 0},
	}
	s := Load(Config{ScaleFactor: 0.002, Seed: 2, InitialFormat: dict.FCInline})
	TraceWorkload(s, 1)
	cols := s.StringColumns()
	if len(cols) != len(want) {
		t.Fatalf("%d string columns, profile has %d", len(cols), len(want))
	}
	for _, c := range cols {
		if got := c.Stats(); got != want[c.Name()] {
			t.Errorf("cold pass, %s: %+v, want %+v", c.Name(), got, want[c.Name()])
		}
	}

	// The warm pass translates nothing: a join column sees only the
	// operations that are not translations (the keys' output extracts).
	warm := map[string]colstore.AccessStats{
		"nation.n_nationkey":   {},
		"supplier.s_suppkey":   {Extracts: 1},
		"supplier.s_nationkey": {},
		"customer.c_custkey":   {Extracts: 88},
		"customer.c_nationkey": {},
		"part.p_partkey":       {},
		"partsupp.ps_partkey":  {},
		"partsupp.ps_suppkey":  {},
		"orders.o_orderkey":    {Extracts: 22},
		"orders.o_custkey":     {},
		"lineitem.l_orderkey":  {},
		"lineitem.l_partkey":   {},
		"lineitem.l_suppkey":   {},
	}
	TraceWorkload(s, 1)
	for _, c := range cols {
		wantWarm, join := warm[c.Name()]
		if !join {
			wantWarm = want[c.Name()]
		}
		if got := c.Stats(); got != wantWarm {
			t.Errorf("warm pass, %s: %+v, want %+v", c.Name(), got, wantWarm)
		}
	}
}

// TestNoViewLiveAfterRunAll is the query layer's pin invariant, the analogue
// of the service's PinnedSnapshots()==0 at idle: with a merge daemon
// republishing columns under the read workload, every query still releases
// its view (and with it every snapshot it pinned) by the time it returns.
func TestNoViewLiveAfterRunAll(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.002, Seed: 2, InitialFormat: dict.FCInline})
	sched := colstore.NewMergeScheduler(s, 50)
	sched.Interval = time.Millisecond
	sched.Chooser = func(snap *colstore.Snapshot, _ float64) dict.Format {
		if snap.Format() == dict.FCInline { // every merge changes the format
			return dict.Array
		}
		return dict.FCInline
	}
	sched.Start(context.Background())
	for round := 0; round < 2; round++ {
		RefreshInsert(s, int64(round), 0.2)
		RunAll(s)
		if live := s.LiveViews(); live != 0 {
			t.Fatalf("round %d: %d views still live after RunAll", round, live)
		}
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
}
