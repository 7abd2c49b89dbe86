package tpch

import (
	"context"
	"testing"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/model"
)

func TestRefreshInsertGrowsTables(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.003, Seed: 9, InitialFormat: dict.FCInline})
	ordBefore := s.Table("orders").Rows()
	liBefore := s.Table("lineitem").Rows()

	inserted := RefreshInsert(s, 1, 0.1)
	if inserted < 1 {
		t.Fatal("nothing inserted")
	}
	if got := s.Table("orders").Rows(); got != ordBefore+inserted {
		t.Fatalf("orders rows %d, want %d", got, ordBefore+inserted)
	}
	if s.Table("lineitem").Rows() <= liBefore {
		t.Fatal("lineitem did not grow")
	}

	// New rows live in the delta until a merge.
	if s.Table("orders").Str("o_orderkey").DeltaRows() != inserted {
		t.Fatalf("delta rows %d, want %d", s.Table("orders").Str("o_orderkey").DeltaRows(), inserted)
	}

	// Rows are readable pre-merge and survive the merge.
	lastRow := s.Table("orders").Rows() - 1
	preMerge := s.Table("orders").Str("o_orderkey").Get(lastRow)
	for _, tbl := range []string{"orders", "lineitem"} {
		s.Table(tbl).MergeAll()
	}
	if got := s.Table("orders").Str("o_orderkey").Get(lastRow); got != preMerge {
		t.Fatalf("row changed across merge: %q -> %q", preMerge, got)
	}

	// Queries still work on the refreshed data.
	if rows := q1(s).Rows; len(rows) == 0 {
		t.Fatal("Q1 empty after refresh")
	}
}

// TestUpdateWorkloadAvoidsExpensiveConstruction reproduces Section 5.1's
// "update-intensive columns need a string dictionary supporting fast
// construction": with frequent merges (short lifetimes) the manager must
// not pick Re-Pair for a large, rarely-read column that it would happily
// compress under a long lifetime.
func TestUpdateWorkloadAvoidsExpensiveConstruction(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.01, Seed: 4, InitialFormat: dict.FCInline})
	comments := s.Table("orders").Str("o_comment")

	stats := func(lifetime time.Duration) core.ColumnStats {
		snap := comments.Snapshot()
		defer snap.Release()
		return core.ColumnStats{
			Name:              comments.Name(),
			NumStrings:        uint64(comments.DictLen()),
			Extracts:          100, // cold column
			Locates:           1,
			LifetimeNs:        float64(lifetime),
			ColumnVectorBytes: comments.VectorBytes(),
			Sample:            model.TakeSample(snap.DictValues(), 1.0, 1),
		}
	}
	mgr := core.NewManager(core.Options{DesiredFreeBytes: 1 << 30})
	mgr.SetC(0.05) // strong compression preference

	longLived := mgr.ChooseFormat(stats(24 * time.Hour)).Format
	updateHeavy := mgr.ChooseFormat(stats(40 * time.Millisecond)).Format

	costs := model.DefaultCostTable()
	if costs.Of(updateHeavy).ConstructNs > costs.Of(longLived).ConstructNs {
		t.Fatalf("update-heavy column got costlier construction (%s, %.0fns) than long-lived (%s, %.0fns)",
			updateHeavy, costs.Of(updateHeavy).ConstructNs,
			longLived, costs.Of(longLived).ConstructNs)
	}
	if longLived == updateHeavy {
		t.Fatalf("lifetime had no effect on the decision (both %s)", longLived)
	}
}

// TestMergeDaemonOnRefreshStream wires RefreshInsert, the background merge
// daemon and the compression manager together: an online update stream with
// adaptive format decisions at every merge, no cooperative Tick calls —
// merges overlap the read workload on the daemon's own timer.
func TestMergeDaemonOnRefreshStream(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.002, Seed: 2, InitialFormat: dict.FCInline})
	mgr := core.NewManager(core.Options{DesiredFreeBytes: 1 << 30})
	mgr.SetC(1)

	sched := colstore.NewMergeScheduler(s, 50)
	sched.Interval = time.Millisecond
	sched.Chooser = func(snap *colstore.Snapshot, lifetimeNs float64) dict.Format {
		return mgr.ChooseFormat(core.SnapshotStats(snap, lifetimeNs, 1.0, 1)).Format
	}
	sched.Start(context.Background())

	for round := 0; round < 3; round++ {
		RefreshInsert(s, int64(round), 0.2)
		RunAll(s) // read workload overlapping background merges
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}

	// Close drained every delta; data remains queryable and consistent.
	for _, c := range s.StringColumns() {
		if c.DeltaRows() != 0 {
			t.Fatalf("%s still has %d delta rows", c.Name(), c.DeltaRows())
		}
	}
	if rows := q6(s).Rows; len(rows) != 1 {
		t.Fatal("Q6 failed after refresh stream")
	}
}
