package strdict_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"strdict"
)

func TestFacadeBuildAndLocate(t *testing.T) {
	strs := []string{"ant", "bee", "cat", "dog", "emu"}
	for _, f := range strdict.AllFormats() {
		d, err := strdict.Build(f, strs)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		id, found := d.Locate("cat")
		if !found || id != 2 {
			t.Fatalf("%s: Locate(cat) = (%d,%v)", f, id, found)
		}
		if d.Extract(4) != "emu" {
			t.Fatalf("%s: Extract(4) = %q", f, d.Extract(4))
		}
	}
}

func TestFacadeEstimate(t *testing.T) {
	var strs []string
	for i := 0; i < 6000; i++ {
		strs = append(strs, fmt.Sprintf("part-%07d", i))
	}
	s := strdict.TakeSample(strs, 0.5, 1)
	d, err := strdict.Build(strdict.FCBlock, strs)
	if err != nil {
		t.Fatal(err)
	}
	est := strdict.EstimateSize(strdict.FCBlock, s)
	real := d.Bytes()
	ratio := float64(est) / float64(real)
	if ratio < 0.8 || ratio > 1.2 {
		t.Fatalf("estimate %d vs real %d", est, real)
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	// Build a tiny store, trace a workload, reconfigure adaptively.
	store := strdict.NewStore()
	tbl := store.AddTable("items")
	col := tbl.AddString("sku", strdict.FCInline)
	for i := 0; i < 2000; i++ {
		col.Append(fmt.Sprintf("SKU-%08d", i%700))
	}
	col.Merge(strdict.FCInline)
	store.ResetStats()

	// Hot workload: many point reads.
	for i := 0; i < 5000; i++ {
		_ = col.Get(i % col.Len())
	}

	mgr := strdict.NewManager(strdict.ManagerOptions{DesiredFreeBytes: 1 << 30})
	mgr.SetC(10)
	cfg := strdict.Reconfigure(store, mgr, 1e9, 1.0, 1)
	if len(cfg) != 1 {
		t.Fatalf("config %v", cfg)
	}
	// Data still correct after the adaptive rebuild.
	if got := col.Get(3); got != "SKU-00000003" {
		t.Fatalf("Get after reconfigure = %q", got)
	}
}

func TestFacadeSelect(t *testing.T) {
	cands := []strdict.Candidate{
		{Format: strdict.Array, SizeBytes: 100, RelTime: 0.1},
		{Format: strdict.FCBlockRP12, SizeBytes: 40, RelTime: 0.5},
	}
	sel := strdict.Select(strdict.StrategyConst, 0, cands)
	if sel.Format != strdict.FCBlockRP12 {
		t.Fatalf("selected %s", sel.Format)
	}
}

func ExampleBuild() {
	words := []string{"delta", "echo", "alfa", "charlie", "bravo"}
	sort.Strings(words)
	d, err := strdict.Build(strdict.FCBlock, words)
	if err != nil {
		panic(err)
	}
	id, found := d.Locate("charlie")
	fmt.Println(id, found, d.Extract(id))
	// Output: 2 true charlie
}

// TestFacadeDaemonMergeFailureReachesOnHealth: a daemon merge whose
// checkpoint cannot be written (a permanently failing create injected via
// the FaultFS seam) is not swallowed — the store turns read-only and the
// transition, carrying the error, reaches StoreOptions.OnHealth.
func TestFacadeDaemonMergeFailureReachesOnHealth(t *testing.T) {
	dir := t.TempDir()
	ffs := &strdict.FaultFS{}
	readOnly := make(chan strdict.HealthEvent, 1)
	s, err := strdict.OpenStore(dir, strdict.StoreOptions{
		FsyncInterval: -1,
		FS:            ffs,
		RetryLimit:    -1,
		OnHealth: func(ev strdict.HealthEvent) {
			if ev.State == strdict.StateReadOnly {
				select {
				case readOnly <- ev:
				default:
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	col := s.AddTable("t").AddString("c", strdict.Array)

	sched := strdict.NewMergeScheduler(s.Store, 4)
	sched.Interval = time.Millisecond
	strdict.StartMergeDaemon(context.Background(), sched, nil)
	defer sched.Close()

	ffs.FailAll(strdict.OpCreate, errors.New("disk full"),
		func(p string) bool { return strings.HasSuffix(p, ".tmp") })
	for i := 0; i < 64; i++ {
		col.Append(fmt.Sprintf("v-%03d", i))
	}

	select {
	case ev := <-readOnly:
		if ev.Err == nil || !strings.Contains(ev.Err.Error(), "disk full") {
			t.Fatalf("read-only event error = %v", ev.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon merge failure never reached OnHealth")
	}
	if s.Health() != strdict.StateReadOnly {
		t.Fatalf("health = %v, want read-only", s.Health())
	}
	ffs.Clear()
}
