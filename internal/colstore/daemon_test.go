package colstore

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

// TestDaemonBackpressure exercises the high-water mark: with the timer
// effectively disabled, only the backpressure kick path can merge, so a
// writer pushing far past the mark must be throttled into many small sealed
// segments — and must never deadlock or lose a row.
func TestDaemonBackpressure(t *testing.T) {
	const (
		hwm  = 50
		rows = 1000
	)
	s := NewStore()
	col := s.AddTable("t").AddString("c", dict.FCBlock)

	m := NewMergeScheduler(s, 1<<30) // threshold unreachable: kick path only
	m.Interval = time.Hour           // timer effectively disabled
	m.HighWaterMark = hwm
	var merges atomic.Int64
	m.Chooser = func(snap *Snapshot, lifetimeNs float64) dict.Format {
		merges.Add(1)
		return dict.FCBlock
	}
	m.Start(context.Background())

	for i := 0; i < rows; i++ {
		col.Append(fmt.Sprintf("bp-%06d", i))
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	if got := col.Len(); got != rows {
		t.Fatalf("Len = %d, want %d", got, rows)
	}
	if col.DeltaRows() != 0 {
		t.Fatalf("delta not drained: %d", col.DeltaRows())
	}
	// A single writer can only run ahead one segment at a time, so the kick
	// path must have merged many times (rows/hwm = 20 segments; allow slack
	// for the final Flush batching the tail).
	if n := merges.Load(); n < 5 {
		t.Fatalf("backpressure produced only %d merges; Append was not throttled", n)
	}
	for i := 0; i < rows; i++ {
		if got, want := col.Get(i), fmt.Sprintf("bp-%06d", i); got != want {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
}

// TestDaemonStartCloseStress races Start against Close repeatedly (run
// under -race via scripts/check.sh). The serialized shutdown must never
// leave two daemons running (goroutine leak), and after the final Close no
// backpressure may linger — an append far past the high-water mark must
// complete even though no daemon serves kicks.
func TestDaemonStartCloseStress(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s := NewStore()
	col := s.AddTable("t").AddString("c", dict.Array)

	m := NewMergeScheduler(s, 50)
	m.Interval = time.Millisecond
	m.HighWaterMark = 20

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
	// No daemon is running and Close stripped backpressure: pushing far
	// past the mark must not block.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			col.Append(fmt.Sprintf("tail-%03d", i))
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("append blocked after final Close: backpressure left installed without a daemon")
	}
	checkNoGoroutineLeak(t, baseline)
}

// TestBackpressureRemovedOnClose: an Append blocked on the high-water mark
// must be released when Close removes backpressure, even if no merge ran.
func TestBackpressureRemovedOnClose(t *testing.T) {
	s := NewStore()
	col := s.AddTable("t").AddString("c", dict.Array)
	// Install backpressure directly with a kick that never merges, modeling
	// a daemon that dies before serving the kick.
	col.setBackpressure(3, func() {})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			col.Append(fmt.Sprintf("v%d", i))
		}
	}()
	// The writer must stall at the mark...
	waitFor(t, "writer to hit the mark", func() bool { return col.Len() == 3 })
	select {
	case <-done:
		t.Fatal("writer ran past the high-water mark")
	case <-time.After(20 * time.Millisecond):
	}
	// ...and resume once backpressure is removed.
	col.setBackpressure(0, nil)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked after backpressure removal")
	}
	if col.Len() != 10 {
		t.Fatalf("Len = %d, want 10", col.Len())
	}
}
