package colstore

import (
	"fmt"
	"testing"
	"time"

	"strdict/internal/dict"
)

func TestMergeSchedulerThreshold(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	hot := tb.AddString("hot", dict.Array)
	cold := tb.AddString("cold", dict.Array)

	m := NewMergeScheduler(s, 100)
	for i := 0; i < 150; i++ {
		hot.Append(fmt.Sprintf("h%04d", i))
	}
	cold.Append("only one")

	merged := m.Tick()
	if len(merged) != 1 || merged[0] != "t.hot" {
		t.Fatalf("merged %v, want [t.hot]", merged)
	}
	if hot.DeltaRows() != 0 {
		t.Fatalf("hot delta %d after merge", hot.DeltaRows())
	}
	if cold.DeltaRows() != 1 {
		t.Fatalf("cold delta %d, want 1 (below threshold)", cold.DeltaRows())
	}
	// Flush takes the rest.
	if merged := m.Flush(); len(merged) != 1 || merged[0] != "t.cold" {
		t.Fatalf("Flush merged %v", merged)
	}
	if got := cold.Get(0); got != "only one" {
		t.Fatalf("cold data lost: %q", got)
	}
}

// TestMergeOrderStoreOrderParallel pins the documented contract that Tick
// (and Flush) report merged column names in store order even when the
// worker pool merges them in arbitrary completion order.
func TestMergeOrderStoreOrderParallel(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	var want []string
	for k := 0; k < 8; k++ {
		c := tb.AddString(fmt.Sprintf("c%d", k), dict.Array)
		for i := 0; i < 10+k*7; i++ { // uneven sizes: merges finish out of order
			c.Append(fmt.Sprintf("v%d-%04d", k, i))
		}
		want = append(want, c.Name())
	}
	m := NewMergeScheduler(s, 1)
	for round := 0; round < 5; round++ {
		var got []string
		withProcs(4, func() { got = m.Tick() })
		if len(got) != len(want) {
			t.Fatalf("round %d: merged %v, want %v", round, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: merge order %v, want store order %v", round, got, want)
			}
		}
		for k := 0; k < 8; k++ { // make every column due again
			tb.Str(fmt.Sprintf("c%d", k)).Append(fmt.Sprintf("r%d-%d", round, k))
		}
	}
}

func TestMergeSchedulerLifetimeTracking(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	c := tb.AddString("c", dict.Array)
	m := NewMergeScheduler(s, 1)

	// Injected clock: merges 5 seconds apart.
	clock := time.Unix(1000, 0)
	m.now = func() time.Time { return clock }

	c.Append("a")
	m.Tick()
	if lt := m.LifetimeNs("t.c", 42); lt != 42 {
		t.Fatalf("first merge should use the fallback, got %g", lt)
	}
	clock = clock.Add(5 * time.Second)
	c.Append("b")
	m.Tick()
	if lt := m.LifetimeNs("t.c", 42); lt != float64(5*time.Second) {
		t.Fatalf("lifetime %g, want 5s", lt)
	}
}

// TestMergeSkipsStaleDispatch pins the stale-dispatch fix: a column
// collected as due but drained before a worker claims it (a racing explicit
// Merge, or a concurrent scheduler) is skipped — not merged, not reported in
// the returned names, and no interval bookkeeping is recorded for it.
func TestMergeSkipsStaleDispatch(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	stale := tb.AddString("stale", dict.Array)
	live := tb.AddString("live", dict.Array)
	m := NewMergeScheduler(s, 1)

	stale.Append("x")
	live.Append("y")
	stale.Merge(stale.Format()) // racing explicit merge drains the delta

	// Dispatch both directly, as Tick would have after collecting them.
	names := m.mergeColumns([]*StringColumn{stale, live}, false)
	if len(names) != 1 || names[0] != "t.live" {
		t.Fatalf("merged %v, want [t.live]", names)
	}
	if st := m.ColumnMergeStats("t.stale"); st.Full != 0 || st.Partial != 0 {
		t.Fatalf("stale dispatch recorded a merge: %+v", st)
	}
	if st := m.ColumnMergeStats("t.live"); st.Full != 1 {
		t.Fatalf("live column not recorded: %+v", st)
	}
}

// TestLifetimeUnaffectedByPartialAndNoOp pins the lifetime(d) bookkeeping
// contract: LifetimeNs measures the interval between *full* merges that
// actually folded rows. Partial folds and no-op passes must leave it
// untouched, while still being visible through ColumnMergeStats.
func TestLifetimeUnaffectedByPartialAndNoOp(t *testing.T) {
	s := NewStore()
	c := s.AddTable("t").AddString("c", dict.Array)
	m := NewMergeScheduler(s, 4)
	m.PartialMerges = true
	clock := time.Unix(1000, 0)
	m.now = func() time.Time { return clock }

	appendN := func(n int) {
		for i := 0; i < n; i++ {
			c.Append(fmt.Sprintf("v%06d", c.Len()))
		}
	}

	// Two timer merges 5s apart establish lifetime = 5s. The injected append
	// rate (4 rows / 5s) is far below the hot threshold, so both are full.
	appendN(4)
	m.Tick()
	clock = clock.Add(5 * time.Second)
	appendN(4)
	m.Tick()
	if lt := m.LifetimeNs("t.c", 42); lt != float64(5*time.Second) {
		t.Fatalf("lifetime %g, want 5s", lt)
	}

	// A hot pass takes the partial path: 8 rows in 1s lift the rate estimate
	// to 0.5*0.8 + 0.5*8 = 4.4 rows/s, past the threshold of 4. It must
	// count as a partial fold and leave the full-merge interval alone.
	clock = clock.Add(time.Second)
	appendN(8)
	m.Tick()
	st := m.ColumnMergeStats("t.c")
	if st.Partial == 0 {
		t.Fatalf("hot pass did not fold partially: %+v", st)
	}
	if st.Full != 2 {
		t.Fatalf("partial fold miscounted as full: %+v", st)
	}
	if lt := m.LifetimeNs("t.c", 42); lt != float64(5*time.Second) {
		t.Fatalf("partial fold skewed lifetime to %g", lt)
	}

	// A no-op pass over a drained column records nothing at all.
	clock = clock.Add(7 * time.Second)
	m.mergeColumns([]*StringColumn{c}, false)
	if got := m.ColumnMergeStats("t.c"); got.Full != st.Full || got.Partial != st.Partial {
		t.Fatalf("no-op pass changed counters: %+v -> %+v", st, got)
	}
	if lt := m.LifetimeNs("t.c", 42); lt != float64(5*time.Second) {
		t.Fatalf("no-op pass skewed lifetime to %g", lt)
	}
}

func TestMergeSchedulerChooser(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	c := tb.AddString("c", dict.FCInline)
	var sawLifetime float64
	var sawRows int
	m := NewMergeScheduler(s, 1)
	m.Chooser = func(snap *Snapshot, lifetimeNs float64) dict.Format {
		sawLifetime = lifetimeNs
		sawRows = snap.Len()
		return dict.ArrayFixed
	}
	for i := 0; i < 10; i++ {
		c.Append(fmt.Sprintf("%03d", i))
	}
	m.Tick()
	if c.Format() != dict.ArrayFixed {
		t.Fatalf("chooser ignored: format %s", c.Format())
	}
	if sawLifetime <= 0 {
		t.Fatal("chooser saw no lifetime")
	}
	if sawRows != 10 {
		t.Fatalf("chooser snapshot saw %d rows, want 10", sawRows)
	}
	for i, want := 0, ""; i < 10; i++ {
		want = fmt.Sprintf("%03d", i)
		if got := c.Get(i); got != want {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
}
