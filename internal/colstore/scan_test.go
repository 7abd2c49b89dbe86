package colstore

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"strdict/internal/dict"
)

// snapshotValues reads every row of snap through Snapshot.Get. Filtered by
// rowsWhere, it is the scan paths' oracle: it shares no code with them (no
// code-vector predicate, no locate, no delta-segment scan).
func snapshotValues(snap *Snapshot) []string {
	vals := make([]string, snap.Len())
	for row := range vals {
		vals[row] = snap.Get(row)
	}
	return vals
}

// rowsWhere returns, ascending, the rows whose value satisfies keep.
func rowsWhere(vals []string, keep func(string) bool) []int {
	var rows []int
	for row, v := range vals {
		if keep(v) {
			rows = append(rows, row)
		}
	}
	return rows
}

func equalTo(probe string) func(string) bool { return func(v string) bool { return v == probe } }

func inRange(lo, hi string) func(string) bool {
	return func(v string) bool { return lo <= v && v < hi }
}

// scanOracle compares every scan entry point on snap against the Get
// oracle over vals, snap's snapshotValues: same rows, same order, for
// equality, count and range probes.
func scanOracle(t *testing.T, snap *Snapshot, vals []string, label, probe, lo, hi string) {
	t.Helper()
	wantEq := rowsWhere(vals, equalTo(probe))
	gotEq := snap.ScanEq(probe, nil)
	if fmt.Sprint(gotEq) != fmt.Sprint(wantEq) {
		t.Fatalf("%s: ScanEq(%q) = %v, Get oracle %v", label, probe, gotEq, wantEq)
	}
	if got, want := snap.CountEq(probe), len(wantEq); got != want {
		t.Fatalf("%s: CountEq(%q) = %d, oracle %d", label, probe, got, want)
	}
	wantRange := rowsWhere(vals, inRange(lo, hi))
	gotRange := snap.ScanRange(lo, hi, nil)
	if fmt.Sprint(gotRange) != fmt.Sprint(wantRange) {
		t.Fatalf("%s: ScanRange(%q, %q) = %v, Get oracle %v", label, lo, hi, gotRange, wantRange)
	}
}

// TestVectorizedScanMatchesScalar runs the kernel scan path against the
// per-row Get oracle on columns that span all three storage classes (main,
// sealed segment, active tail), across value shapes that exercise every
// vector kind the merge can choose and several dictionary formats.
func TestVectorizedScanMatchesScalar(t *testing.T) {
	const rows = 12425
	shapes := []struct {
		name  string
		value func(i int) string
	}{
		// Sorted runs: merge picks RLE.
		{"clustered", func(i int) string { return fmt.Sprintf("v%05d", i/1024) }},
		// Uniform shuffle: packed vector.
		{"uniform", func(i int) string { return fmt.Sprintf("v%05d", (i*2654435761)%512) }},
		// Single value: constant column, one-code dictionary.
		{"constant", func(i int) string { return "only" }},
	}
	formats := []dict.Format{dict.Array, dict.ArrayFixed, dict.FCBlock}
	for _, shape := range shapes {
		for _, f := range formats {
			t.Run(shape.name+"/"+f.String(), func(t *testing.T) {
				c := NewStringColumn("t.c", f)
				for i := 0; i < rows; i++ {
					c.Append(shape.value(i))
				}
				c.Merge(f)
				// Delta rows on top: one sealed segment and an active tail,
				// mixing main values with delta-only ones.
				for i := 0; i < 100; i++ {
					c.Append(shape.value(i * 31))
					c.Append(fmt.Sprintf("zz-sealed-%02d", i%7))
				}
				c.sealActive()
				for i := 0; i < 50; i++ {
					c.Append(shape.value(i * 17))
					c.Append(fmt.Sprintf("zz-active-%02d", i%5))
				}

				snap := c.Snapshot()
				defer snap.Release()
				probes := []string{
					shape.value(0), shape.value(rows / 2), shape.value(rows - 1),
					"zz-sealed-03", "zz-active-02", "absent-value", "",
				}
				vals := snapshotValues(snap)
				for _, p := range probes {
					scanOracle(t, snap, vals, shape.name, p, p, p+"\xff")
				}
				// Range probes: empty, narrow, wide, everything.
				scanOracle(t, snap, vals, shape.name, shape.value(7), "x", "a")
				scanOracle(t, snap, vals, shape.name, shape.value(7), shape.value(rows/3), shape.value(rows/2))
				scanOracle(t, snap, vals, shape.name, shape.value(7), "", "\xff")
			})
		}
	}
}

// TestSnapshotStatsFlushOnRelease: snapshot reads accumulate locally and hit
// the column's counters only on Release, exactly once.
func TestSnapshotStatsFlushOnRelease(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	for i := 0; i < 100; i++ {
		c.Append(fmt.Sprintf("v%03d", i%10))
	}
	c.Merge(dict.Array)
	c.ResetStats()

	snap := c.Snapshot()
	snap.Get(5)              // one extract
	snap.Locate("v003")      // one locate
	snap.ScanEq("v004", nil) // one more locate
	if st := c.Stats(); st.Extracts != 0 || st.Locates != 0 {
		t.Fatalf("counters flushed early: %+v", st)
	}
	snap.Release()
	if st := c.Stats(); st.Extracts != 1 || st.Locates != 2 {
		t.Fatalf("after Release: %+v, want 1 extract / 2 locates", st)
	}
	snap.Release() // idempotent: no double count
	if st := c.Stats(); st.Extracts != 1 || st.Locates != 2 {
		t.Fatalf("second Release changed counters: %+v", st)
	}
}

// TestScansMatchGetAcrossMergePaths: after full merges, partial merges and
// format rebuilds, every scan entry point still agrees with the Get oracle.
func TestScansMatchGetAcrossMergePaths(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	appendBatch := func(n, seed int) {
		for i := 0; i < n; i++ {
			c.Append(fmt.Sprintf("v%05d", (seed+i*7)%300))
		}
	}
	check := func(stage string) {
		t.Helper()
		snap := c.Snapshot()
		defer snap.Release()
		vals := snapshotValues(snap)
		for _, probe := range []string{"v00000", "v00123", "v00299", "nope"} {
			scanOracle(t, snap, vals, stage, probe, probe, probe+"~")
		}
	}

	appendBatch(4596, 0)
	c.Merge(dict.Array)
	check("full merge")

	// Two sealed segments, partial-merge one of them (identity fold).
	appendBatch(800, 11)
	c.sealActive()
	appendBatch(900, 23)
	c.sealActive()
	c.MergePartial(1)
	check("partial merge")

	c.Merge(dict.FCBlock)
	check("second full merge")

	c.Rebuild(dict.FCInline)
	check("rebuild")
}

// TestScanSoundnessConcurrent is the race-detector stress for the
// vectorized path: writers append, a merger keeps folding the delta into new
// main parts, and readers continuously verify that the kernel scan equals
// the Get oracle on their own pinned snapshots.
func TestScanSoundnessConcurrent(t *testing.T) {
	const (
		writers       = 2
		rowsPerWriter = 4000
		readers       = 3
	)
	c := NewStringColumn("t.c", dict.Array)
	valueOf := func(w, i int) string { return fmt.Sprintf("w%d-%04d", w, i%200) }

	var wg sync.WaitGroup
	var writersDone atomic.Bool

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rowsPerWriter; i++ {
				c.Append(valueOf(w, i))
			}
		}(w)
	}

	var mergerWG sync.WaitGroup
	mergerWG.Add(1)
	go func() {
		defer mergerWG.Done()
		formats := []dict.Format{dict.Array, dict.FCBlock, dict.ArrayBC}
		for i := 0; !writersDone.Load(); i++ {
			if i%3 == 2 {
				c.MergePartial(1)
			} else {
				c.Merge(formats[i%len(formats)])
			}
		}
	}()

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
			rng := rand.New(rand.NewSource(int64(r)))
			for iter := 0; iter < 300; iter++ {
				snap := c.Snapshot()
				probe := valueOf(rng.Intn(writers), rng.Intn(rowsPerWriter))
				vals := snapshotValues(snap)
				kernel := snap.ScanEq(probe, nil)
				oracle := rowsWhere(vals, equalTo(probe))
				if fmt.Sprint(kernel) != fmt.Sprint(oracle) {
					errCh <- fmt.Errorf("reader %d: ScanEq(%q) = %v, oracle %v", r, probe, kernel, oracle)
					snap.Release()
					return
				}
				lo := valueOf(0, rng.Intn(200))
				hi := valueOf(writers-1, rng.Intn(200))
				kr := snap.ScanRange(lo, hi, nil)
				or := rowsWhere(vals, inRange(lo, hi))
				if fmt.Sprint(kr) != fmt.Sprint(or) {
					errCh <- fmt.Errorf("reader %d: ScanRange(%q,%q) mismatch", r, lo, hi)
					snap.Release()
					return
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

	// Final consistency: after one last full merge, every value's row set is
	// exactly the rows that hold it.
	c.Merge(dict.Array)
	snap := c.Snapshot()
	defer snap.Release()
	if snap.Len() != writers*rowsPerWriter {
		t.Fatalf("rows lost: %d, want %d", snap.Len(), writers*rowsPerWriter)
	}
	probe := valueOf(1, 42)
	rows := snap.ScanEq(probe, nil)
	if !sort.IntsAreSorted(rows) {
		t.Fatal("ScanEq rows not sorted")
	}
	for _, row := range rows {
		if got := snap.Get(row); got != probe {
			t.Fatalf("row %d = %q, want %q", row, got, probe)
		}
	}
	if want := rowsWhere(snapshotValues(snap), equalTo(probe)); fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("final ScanEq = %v, oracle %v", rows, want)
	}
}
