package colstore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"strdict/internal/dict"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// checkNoGoroutineLeak fails the test if the goroutine count does not
// return to (at most) the recorded baseline — the stdlib equivalent of a
// goleak assertion. Polls because exiting goroutines unwind asynchronously.
func checkNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestDaemonMergesOnTimer drives the daemon with an injectable ticker and an
// injectable clock: each injected tick must trigger a merge pass over due
// columns with no Tick call from the ingest path, interval bookkeeping must
// use the injected clock, and Close must not leak the daemon goroutine.
func TestDaemonMergesOnTimer(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := NewStore()
	tb := s.AddTable("t")
	c := tb.AddString("c", dict.Array)

	m := NewMergeScheduler(s, 10)
	clock := time.Unix(1000, 0)
	m.now = func() time.Time { return clock }
	ticks := make(chan time.Time)
	m.newTicker = func(d time.Duration) (<-chan time.Time, func()) {
		if d != 42*time.Millisecond {
			t.Errorf("daemon used interval %v, want 42ms", d)
		}
		return ticks, func() {}
	}
	m.Interval = 42 * time.Millisecond

	for i := 0; i < 25; i++ {
		c.Append(fmt.Sprintf("v%04d", i))
	}
	m.Start(context.Background())
	m.Start(context.Background()) // idempotent: second Start is a no-op

	if c.DeltaRows() != 25 {
		t.Fatalf("merged before any tick: %d delta rows", c.DeltaRows())
	}
	ticks <- clock
	waitFor(t, "first timer merge", func() bool { return c.DeltaRows() == 0 })

	// Second round: the injected clock advances 7s between merges, which
	// must land in the lifetime bookkeeping.
	clock = clock.Add(7 * time.Second)
	for i := 0; i < 25; i++ {
		c.Append(fmt.Sprintf("w%04d", i))
	}
	ticks <- clock
	waitFor(t, "second timer merge", func() bool { return c.DeltaRows() == 0 })
	if lt := m.LifetimeNs("t.c", -1); lt != float64(7*time.Second) {
		t.Fatalf("lifetime %g, want 7s", lt)
	}

	// Shutdown: rows below the threshold are drained by Close's Flush.
	c.Append("leftover")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if c.DeltaRows() != 0 {
		t.Fatalf("Close did not drain: %d delta rows", c.DeltaRows())
	}
	if got := c.Get(c.Len() - 1); got != "leftover" {
		t.Fatalf("drained row reads %q", got)
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestDaemonCloseWithoutStart: an unstarted scheduler's Close just flushes.
func TestDaemonCloseWithoutStart(t *testing.T) {
	s := NewStore()
	c := s.AddTable("t").AddString("c", dict.Array)
	c.Append("x")
	m := NewMergeScheduler(s, 100)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if c.DeltaRows() != 0 {
		t.Fatal("Close on unstarted scheduler did not flush")
	}
}

// TestDaemonContextCancelStopsGoroutine: cancelling the Start context stops
// the daemon without Close.
func TestDaemonContextCancelStopsGoroutine(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewStore()
	s.AddTable("t").AddString("c", dict.Array)
	m := NewMergeScheduler(s, 100)
	m.Interval = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	m.Start(ctx)
	cancel()
	checkNoGoroutineLeak(t, baseline)
	// Close after context cancellation is still clean.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonStartCloseStress races Start against Close and Append
// repeatedly (run under -race via scripts/check.sh). The serialized
// shutdown must never leave two daemons running (goroutine leak).
func TestDaemonStartCloseStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewStore()
	col := s.AddTable("t").AddString("c", dict.Array)

	m := NewMergeScheduler(s, 50)
	m.Interval = time.Millisecond

	for round := 0; round < 40; round++ {
		var wg sync.WaitGroup
		wg.Add(3)
		go func() {
			defer wg.Done()
			m.Start(context.Background())
		}()
		go func() {
			defer wg.Done()
			if err := m.Close(); err != nil {
				t.Error(err)
			}
		}()
		go func(round int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				col.Append(fmt.Sprintf("r%03d-%03d", round, i))
			}
		}(round)
		wg.Wait()
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if col.Len() != 40*30 || col.DeltaRows() != 0 {
		t.Fatalf("after final Close: %d rows, %d in the delta; want %d, 0", col.Len(), col.DeltaRows(), 40*30)
	}
	checkNoGoroutineLeak(t, baseline)
}
