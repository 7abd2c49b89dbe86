package colstore

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"strdict/internal/dict"
)

// TestConcurrentMergeStress runs N writer goroutines appending while the
// scheduler merges on its worker pool and reader goroutines hammer Get,
// Locate and ScanEq. Readers assert they never observe a torn column state
// (out-of-range panics, foreign values, rows whose value disagrees with the
// probe); a final flush-and-verify checks no row was lost or duplicated.
func TestConcurrentMergeStress(t *testing.T) {
	const (
		writers       = 4
		rowsPerWriter = 3000
		readers       = 3
	)
	// At least two pool workers, whatever the host's core count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	s := NewStore()
	tb := s.AddTable("t")
	col := tb.AddString("c", dict.FCBlock)

	sched := NewMergeScheduler(s, 400)
	// Rotate through a few formats so merges also exercise format changes.
	formats := []dict.Format{dict.FCBlock, dict.Array, dict.FCInline, dict.ArrayBC}
	var mergeCount atomic.Int64
	sched.Chooser = func(snap *Snapshot, lifetimeNs float64) dict.Format {
		return formats[int(mergeCount.Add(1))%len(formats)]
	}

	valueOf := func(w, i int) string { return fmt.Sprintf("w%d-%06d", w, i) }

	var wg sync.WaitGroup
	var writersDone atomic.Bool

	// Writers: each appends its own deterministic sequence.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rowsPerWriter; i++ {
				col.Append(valueOf(w, i))
			}
		}(w)
	}

	// Merger: keep ticking until the writers are done.
	var mergerWG sync.WaitGroup
	mergerWG.Add(1)
	go func() {
		defer mergerWG.Done()
		for !writersDone.Load() {
			sched.Tick()
		}
	}()

	// Readers: every observation must be internally consistent.
	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errCh <- fmt.Errorf("reader %d panicked: %v", r, p)
				}
			}()
			var rows []int
			for iter := 0; iter < 400; iter++ {
				if n := col.Len(); n > 0 {
					got := col.Get((iter * 7919) % n)
					if !strings.HasPrefix(got, "w") {
						errCh <- fmt.Errorf("reader %d: torn value %q", r, got)
						return
					}
				}
				probe := valueOf(iter%writers, (iter*31)%rowsPerWriter)
				snap := col.Snapshot()
				rows = snap.ScanEq(probe, rows[:0])
				for _, row := range rows {
					// The column is append-only, so a row that matched the
					// scan must still hold the probe value afterwards.
					if got := col.Get(row); got != probe {
						errCh <- fmt.Errorf("reader %d: ScanEq row %d holds %q, want %q", r, row, got, probe)
						return
					}
				}
				if id, ok := snap.Locate(probe); ok {
					if got := snap.Extract(id); got != probe {
						errCh <- fmt.Errorf("reader %d: Locate/Extract mismatch %q vs %q", r, got, probe)
						return
					}
				}
				snap.Release()
			}
		}(r)
	}

	wg.Wait()
	writersDone.Store(true)
	mergerWG.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Final verification: flush and compare the multiset of all rows against
	// what the writers appended.
	sched.Flush()
	if got := col.Len(); got != writers*rowsPerWriter {
		t.Fatalf("row count %d, want %d", got, writers*rowsPerWriter)
	}
	if col.DeltaRows() != 0 {
		t.Fatalf("delta not empty after flush: %d rows", col.DeltaRows())
	}
	var want, have []string
	for w := 0; w < writers; w++ {
		for i := 0; i < rowsPerWriter; i++ {
			want = append(want, valueOf(w, i))
		}
	}
	for row := 0; row < col.Len(); row++ {
		have = append(have, col.Get(row))
	}
	sort.Strings(want)
	sort.Strings(have)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("row multiset diverges at %d: %q vs %q", i, have[i], want[i])
		}
	}
}

// TestMergeKeepsConcurrentAppends pins the swap-time delta handling: rows
// appended while a merge is building must survive in the delta and keep
// their row positions.
func TestMergeKeepsConcurrentAppends(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("t")
	col := tb.AddString("c", dict.Array)
	for i := 0; i < 100; i++ {
		col.Append(fmt.Sprintf("base-%03d", i))
	}
	col.Merge(dict.Array)

	// Simulate "appended during the build" by appending between snapshot and
	// swap: easiest deterministic approximation is appending from another
	// goroutine racing a merge many times.
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				col.Append(fmt.Sprintf("r%02d-%02d", round, i))
			}
		}(round)
		col.Merge(dict.Array)
		wg.Wait()
	}
	col.Merge(dict.Array)

	want := 100 + 50*20
	if got := col.Len(); got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	seen := make(map[string]int)
	for row := 0; row < col.Len(); row++ {
		seen[col.Get(row)]++
	}
	if len(seen) != want {
		t.Fatalf("distinct values %d, want %d", len(seen), want)
	}
	for v, n := range seen {
		if n != 1 {
			t.Fatalf("value %q appears %d times", v, n)
		}
	}
}

// TestSnapshotReadersVsDaemon races Snapshot readers against the background
// merge daemon: writers append while the daemon merges on its own timer
// (rotating formats), and every snapshot a reader takes must be internally
// consistent — Len is fixed, every row below Len is readable, the same row
// re-reads identically for the snapshot's lifetime, and ScanEq results agree
// with Get. Runs under -race via scripts/check.sh.
func TestSnapshotReadersVsDaemon(t *testing.T) {
	const (
		writers       = 3
		rowsPerWriter = 2500
		readers       = 4
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	s := NewStore()
	tb := s.AddTable("t")
	col := tb.AddString("c", dict.FCBlock)

	sched := NewMergeScheduler(s, 300)
	sched.Interval = time.Millisecond
	formats := []dict.Format{dict.FCBlock, dict.Array, dict.FCInline, dict.ArrayBC}
	var mergeCount atomic.Int64
	sched.Chooser = func(snap *Snapshot, lifetimeNs float64) dict.Format {
		return formats[int(mergeCount.Add(1))%len(formats)]
	}
	sched.Start(context.Background())

	valueOf := func(w, i int) string { return fmt.Sprintf("w%d-%06d", w, i) }

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rowsPerWriter; i++ {
				col.Append(valueOf(w, i))
			}
		}(w)
	}

	errCh := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errCh <- fmt.Errorf("reader %d panicked: %v", r, p)
				}
			}()
			prevLen := 0
			var rows []int
			for iter := 0; iter < 300; iter++ {
				snap := col.Snapshot()
				n := snap.Len()
				if n < prevLen {
					errCh <- fmt.Errorf("reader %d: snapshot Len went backwards: %d -> %d", r, prevLen, n)
					return
				}
				prevLen = n
				if n != snap.Len() {
					errCh <- fmt.Errorf("reader %d: Len unstable within one snapshot", r)
					return
				}
				if n == 0 {
					continue
				}
				// A sample of rows must read consistently twice.
				for k := 0; k < 5; k++ {
					row := (iter*7919 + k*104729) % n
					first := snap.Get(row)
					if !strings.HasPrefix(first, "w") {
						errCh <- fmt.Errorf("reader %d: torn value %q", r, first)
						return
					}
					if again := snap.Get(row); again != first {
						errCh <- fmt.Errorf("reader %d: row %d changed within snapshot: %q -> %q", r, row, first, again)
						return
					}
				}
				// ScanEq and Get must agree on the same snapshot.
				probe := valueOf(iter%writers, (iter*31)%rowsPerWriter)
				rows = snap.ScanEq(probe, rows[:0])
				for _, row := range rows {
					if got := snap.Get(row); got != probe {
						errCh <- fmt.Errorf("reader %d: ScanEq row %d holds %q, want %q", r, row, got, probe)
						return
					}
				}
			}
		}(r)
	}

	wg.Wait()
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Close drained everything; the final state holds every appended row.
	if got := col.Len(); got != writers*rowsPerWriter {
		t.Fatalf("row count %d, want %d", got, writers*rowsPerWriter)
	}
	if col.DeltaRows() != 0 {
		t.Fatalf("delta not empty after Close: %d rows", col.DeltaRows())
	}
	var want, have []string
	for w := 0; w < writers; w++ {
		for i := 0; i < rowsPerWriter; i++ {
			want = append(want, valueOf(w, i))
		}
	}
	for row := 0; row < col.Len(); row++ {
		have = append(have, col.Get(row))
	}
	sort.Strings(want)
	sort.Strings(have)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("row multiset diverges at %d: %q vs %q", i, have[i], want[i])
		}
	}
}

// TestCountTableConcurrent races the lazy count-table build: each round,
// readers on their own snapshots of one fresh version (table unbuilt) call
// CountEq together while an appender feeds a merge daemon that republishes
// the column, and every answer must equal the Get oracle on the reader's
// snapshot. Runs under -race via scripts/check.sh.
func TestCountTableConcurrent(t *testing.T) {
	const readers = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	s := NewStore()
	col := s.AddTable("t").AddString("c", dict.Array)
	valueOf := func(i int) string { return fmt.Sprintf("v%04d", i*7919%(50+i/40)) }
	for i := range 2000 {
		col.Append(valueOf(i))
	}
	col.Merge(dict.Array)

	sched := NewMergeScheduler(s, 1)
	sched.Interval = time.Millisecond
	sched.Start(context.Background())
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2000; !stop.Load(); i++ {
			col.Append(valueOf(i))
			if i%50 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	for round := 0; round < 10; round++ {
		var snaps []*Snapshot
		waitFor(t, "a fresh version", func() bool {
			snaps = snaps[:0]
			for range readers {
				snaps = append(snaps, col.Snapshot())
			}
			v := snaps[0].v
			for _, snap := range snaps {
				if snap.v != v {
					return false
				}
			}
			return v.counts.built.Load() == nil
		})
		var rg sync.WaitGroup
		for _, snap := range snaps {
			rg.Add(1)
			go func() {
				defer rg.Done()
				defer snap.Release()
				values := append(snap.DictValues(), "absent")
				got := make([]int, len(values))
				for i, val := range values {
					got[i] = snap.CountEq(val)
				}
				want := make(map[string]int)
				for row := range snap.Len() {
					want[snap.Get(row)]++
				}
				for i, val := range values {
					if got[i] != want[val] {
						t.Errorf("round %d: CountEq(%q) = %d, Get oracle %d", round, val, got[i], want[val])
						return
					}
				}
				for val, n := range want { // the delta's values too
					if got := snap.CountEq(val); got != n {
						t.Errorf("round %d: CountEq(%q) = %d, Get oracle %d", round, val, got, n)
						return
					}
				}
			}()
		}
		rg.Wait()
	}
	stop.Store(true)
	wg.Wait()
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelMergeIdenticalDictionaries asserts the acceptance invariant:
// merging a store serially (GOMAXPROCS 1) or on a pool of four workers
// (GOMAXPROCS 4) yields identical dictionary bytes per column.
func TestParallelMergeIdenticalDictionaries(t *testing.T) {
	build := func() *Store {
		s := NewStore()
		tb := s.AddTable("t")
		for k := 0; k < 4; k++ {
			c := tb.AddString(fmt.Sprintf("c%d", k), dict.FCInline)
			for i := 0; i < 2500; i++ {
				c.Append(fmt.Sprintf("col%d/val-%06d-%04x", k, i%1900, (i*37+k)%1900))
			}
		}
		return s
	}
	chooser := func(snap *Snapshot, _ float64) dict.Format {
		// Pick per-column formats covering array, fc and df layouts.
		switch {
		case strings.HasSuffix(snap.Name(), "0"):
			return dict.ArrayHU
		case strings.HasSuffix(snap.Name(), "1"):
			return dict.FCBlockDF
		case strings.HasSuffix(snap.Name(), "2"):
			return dict.FCBlockBC
		default:
			return dict.FCBlock
		}
	}

	serialStore := build()
	serialSched := NewMergeScheduler(serialStore, 1)
	serialSched.Chooser = chooser
	withProcs(1, func() { serialSched.Flush() })

	parStore := build()
	parSched := NewMergeScheduler(parStore, 1)
	parSched.Chooser = chooser
	withProcs(4, func() { parSched.Flush() })

	sc := serialStore.StringColumns()
	pc := parStore.StringColumns()
	for i := range sc {
		if sc[i].Format() != pc[i].Format() {
			t.Fatalf("%s: format %s vs %s", sc[i].Name(), sc[i].Format(), pc[i].Format())
		}
		if sb, pb := sc[i].DictBytes(), pc[i].DictBytes(); sb != pb {
			t.Fatalf("%s: dict bytes %d vs %d", sc[i].Name(), sb, pb)
		}
		if sb, pb := sc[i].VectorBytes(), pc[i].VectorBytes(); sb != pb {
			t.Fatalf("%s: vector bytes %d vs %d", sc[i].Name(), sb, pb)
		}
	}
}

// withProcs runs fn with GOMAXPROCS, and so the column pool's worker count,
// set to n, and restores it afterwards.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}
