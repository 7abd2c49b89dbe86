// Adaptive: an end-to-end demonstration of the compression manager on a
// small column store — two columns with opposite usage patterns, a memory
// budget, the feedback loop steering the trade-off parameter c, and the
// background merge daemon: its worker pool merges due columns on its own
// timer (no cooperative Tick calls in the ingest loop), consults the
// manager for the format at every merge, while the columns stay readable
// throughout (versioned read path, snapshot-build-swap).
package main

import (
	"context"
	"fmt"
	"time"

	"strdict"
)

func main() {
	store := strdict.NewStore()
	tbl := store.AddTable("events")

	// A hot column: short status codes read on every request.
	status := tbl.AddString("status", strdict.FCInline)
	// A cold column: long session identifiers, mostly written and archived.
	session := tbl.AddString("session_id", strdict.FCInline)

	mgr := strdict.NewManager(strdict.ManagerOptions{
		DesiredFreeBytes: 512 << 20,
		Strategy:         strdict.StrategyTilt,
	})

	// The background merge daemon: due columns merge in parallel on a
	// GOMAXPROCS-sized pool on the daemon's own timer, each consulting the
	// manager for its format at merge time. Append never waits for it.
	// PartialMerges keeps hot columns cheap: on a column appending at least
	// a threshold's worth of rows per second the daemon folds only the
	// oldest sealed segments with the format unchanged, so it skips the
	// manager's sampling and, when they bring no new value, the dictionary
	// rebuild (the code vector is still re-packed); full merges — and the
	// manager's format choice — land once a column cools down or at Close.
	sched := strdict.NewMergeScheduler(store, 20_000)
	sched.Interval = 5 * time.Millisecond
	sched.PartialMerges = true
	strdict.StartMergeDaemon(context.Background(), sched, mgr)

	// The ingest loop contains no merge calls at all — merges overlap it on
	// the daemon goroutine while every reader stays lock-free on the
	// published column versions (see the colstore stress test).
	for i := 0; i < 50_000; i++ {
		status.Append([]string{"OK", "RETRY", "FAILED", "TIMEOUT", "DROPPED"}[i%5])
		session.Append(fmt.Sprintf("sess-%08x-%08x", i*2654435761, i))
	}
	if err := sched.Close(); err != nil { // drains every remaining delta row
		panic(err)
	}
	fmt.Printf("daemon closed: status delta=%d session delta=%d\n",
		status.DeltaRows(), session.DeltaRows())
	store.ResetStats()

	// Trace a workload: the status column is read constantly, the session
	// column almost never.
	for i := 0; i < 200_000; i++ {
		_ = status.Get(i % status.Len())
	}
	for i := 0; i < 50; i++ {
		_ = session.Get(i * 997 % session.Len())
	}

	// Simulate memory pressure: the feedback loop lowers c, which makes the
	// manager favour compression.
	fmt.Println("\nfeeding low free-memory observations...")
	for i := 0; i < 15; i++ {
		mgr.ObserveFreeMemory(128 << 20)
	}
	fmt.Printf("c after pressure: %.4f\n", mgr.C())

	lifetime := 60e9 // one minute between merges
	cfg := strdict.Reconfigure(store, mgr, lifetime, 1.0, 1)
	fmt.Println("\nchosen formats under memory pressure:")
	for col, f := range cfg {
		fmt.Printf("  %-18s -> %s\n", col, f)
	}
	fmt.Printf("dictionary bytes: status=%d session=%d\n",
		status.DictBytes(), session.DictBytes())

	// Memory recovers: c rises, speed wins again.
	fmt.Println("\nfeeding high free-memory observations...")
	for i := 0; i < 40; i++ {
		mgr.ObserveFreeMemory(2048 << 20)
	}
	fmt.Printf("c after recovery: %.4f\n", mgr.C())

	cfg = strdict.Reconfigure(store, mgr, lifetime, 1.0, 1)
	fmt.Println("\nchosen formats with plenty of memory:")
	for col, f := range cfg {
		fmt.Printf("  %-18s -> %s\n", col, f)
	}
	fmt.Printf("dictionary bytes: status=%d session=%d\n",
		status.DictBytes(), session.DictBytes())
}
