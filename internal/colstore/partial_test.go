package colstore

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"strdict/internal/dict"
)

// seal freezes the column's active segment into the sealed chain, giving
// tests deterministic control over segment boundaries.
func seal(c *StringColumn) {
	c.mergeMu.Lock()
	c.sealActive()
	c.mergeMu.Unlock()
}

// TestMergePartialBoundary folds the oldest segments one batch at a time
// and checks the main/sealed boundary after every fold, with every row
// readable and correct throughout.
func TestMergePartialBoundary(t *testing.T) {
	c := NewStringColumn("c", dict.FCBlock)
	const segs, perSeg = 5, 40
	var want []string
	for s := 0; s < segs; s++ {
		for i := 0; i < perSeg; i++ {
			v := fmt.Sprintf("s%d-%03d", s, i)
			c.Append(v)
			want = append(want, v)
		}
		seal(c)
	}
	if got := c.SealedSegments(); got != segs {
		t.Fatalf("sealed segments %d, want %d", got, segs)
	}

	for fold := 1; fold <= segs; fold++ {
		res := c.MergePartial(1)
		if res.Folded != perSeg {
			t.Fatalf("fold %d: folded %d rows, want %d", fold, res.Folded, perSeg)
		}
		v := c.version.Load()
		if v.nMain != fold*perSeg {
			t.Fatalf("fold %d: boundary at %d, want %d", fold, v.nMain, fold*perSeg)
		}
		if got := c.SealedSegments(); got != segs-fold {
			t.Fatalf("fold %d: %d sealed segments remain, want %d", fold, got, segs-fold)
		}
		for row, w := range want {
			if got := c.Get(row); got != w {
				t.Fatalf("fold %d: Get(%d) = %q, want %q", fold, row, got, w)
			}
		}
	}
	if c.DeltaRows() != 0 {
		t.Fatalf("delta not empty after folding everything: %d rows", c.DeltaRows())
	}
}

// TestMergePartialKeepsFormat: partial folds never change the dictionary
// format, with or without new distinct values.
func TestMergePartialKeepsFormat(t *testing.T) {
	c := NewStringColumn("c", dict.FCBlockBC)
	for i := 0; i < 64; i++ {
		c.Append(fmt.Sprintf("v%03d", i))
	}
	c.Merge(dict.FCBlockBC)
	for i := 0; i < 32; i++ {
		c.Append(fmt.Sprintf("w%03d", i)) // new values force a dict rebuild
	}
	if res := c.MergePartial(1); !res.DictBuilt {
		t.Fatal("new values should rebuild the dictionary")
	}
	if got := c.Format(); got != dict.FCBlockBC {
		t.Fatalf("partial fold changed format to %s", got)
	}
}

// TestMergePartialIdentityFold: folding segments whose values are all in
// the dictionary already must reuse the dictionary and its format (no
// rebuild) and re-pack the main vector with the folded rows, every row
// reading back unchanged.
func TestMergePartialIdentityFold(t *testing.T) {
	c := NewStringColumn("c", dict.FCBlock)
	const distinct = 50
	for i := 0; i < distinct; i++ {
		c.Append(fmt.Sprintf("v%03d", i))
	}
	c.Merge(dict.FCBlock)
	nMain := c.version.Load().nMain

	// Two segments of repeats: no new distinct values.
	var want []string
	for row := 0; row < c.Len(); row++ {
		want = append(want, c.Get(row))
	}
	for s := 0; s < 2; s++ {
		for i := 0; i < 30; i++ {
			want = append(want, fmt.Sprintf("v%03d", (s*7+i*3)%distinct))
			c.Append(want[len(want)-1])
		}
		seal(c)
	}
	before := c.version.Load().dict
	res := c.MergePartial(2)
	if res.Folded != 60 {
		t.Fatalf("folded %d, want 60", res.Folded)
	}
	if res.DictBuilt {
		t.Fatal("identity fold rebuilt the dictionary")
	}
	if res.Rewritten != nMain+60 {
		t.Fatalf("identity fold rewrote %d rows, want the %d main and 60 folded", res.Rewritten, nMain)
	}
	v := c.version.Load()
	if v.dict != before || c.Format() != dict.FCBlock {
		t.Fatal("identity fold did not reuse the dictionary value and format")
	}
	if v.nMain != nMain+60 {
		t.Fatalf("boundary %d, want %d", v.nMain, nMain+60)
	}
	for row, w := range want {
		if got := c.Get(row); got != w {
			t.Fatalf("row %d = %q after identity fold, want %q", row, got, w)
		}
	}
}

// TestMergePartialEdgeCases: k <= 0 and empty columns are no-ops; k past
// the segment count clamps to a full fold.
func TestMergePartialEdgeCases(t *testing.T) {
	c := NewStringColumn("c", dict.Array)
	if res := c.MergePartial(3); res.Folded != 0 {
		t.Fatalf("empty column folded %d rows", res.Folded)
	}
	c.Append("a")
	if res := c.MergePartial(0); res.Folded != 0 {
		t.Fatalf("k=0 folded %d rows", res.Folded)
	}
	// k larger than the (post-seal) segment count folds everything.
	if res := c.MergePartial(99); res.Folded != 1 {
		t.Fatalf("clamped fold folded %d rows, want 1", res.Folded)
	}
	if c.DeltaRows() != 0 || c.Get(0) != "a" {
		t.Fatal("clamped fold lost the row")
	}
}

// TestMergePartialSnapshotIsolation: a snapshot taken before a partial fold
// keeps answering from the old boundary; one taken after sees the new.
func TestMergePartialSnapshotIsolation(t *testing.T) {
	c := NewStringColumn("c", dict.Array)
	for i := 0; i < 20; i++ {
		c.Append(fmt.Sprintf("a%02d", i))
	}
	seal(c)
	for i := 0; i < 20; i++ {
		c.Append(fmt.Sprintf("b%02d", i))
	}
	seal(c)

	old := c.Snapshot()
	oldMain := old.MainRows()
	res := c.MergePartial(1)
	if res.Folded != 20 {
		t.Fatalf("folded %d, want 20", res.Folded)
	}
	if old.MainRows() != oldMain {
		t.Fatal("pinned snapshot's boundary moved")
	}
	for i := 0; i < 40; i++ {
		want := fmt.Sprintf("a%02d", i)
		if i >= 20 {
			want = fmt.Sprintf("b%02d", i-20)
		}
		if got := old.Get(i); got != want {
			t.Fatalf("old snapshot Get(%d) = %q, want %q", i, got, want)
		}
	}
	if fresh := c.Snapshot(); fresh.MainRows() != oldMain+20 {
		t.Fatalf("fresh snapshot boundary %d, want %d", fresh.MainRows(), oldMain+20)
	}
}

// TestMergePartialEquivalenceDeterministic drives two columns through the
// same deterministic append sequence; one takes partial folds at every
// batch boundary, the other accumulates its delta untouched. Reads must
// agree at every step, and after one final full merge in the same format
// both columns must be bit-identical (dictionary and vector bytes).
func TestMergePartialEquivalenceDeterministic(t *testing.T) {
	a := NewStringColumn("a", dict.FCBlock)
	b := NewStringColumn("b", dict.FCBlock)
	value := func(i int) string { return fmt.Sprintf("val-%05d", (i*37)%500) }

	n := 0
	for batch := 0; batch < 12; batch++ {
		for i := 0; i < 100; i++ {
			a.Append(value(n))
			b.Append(value(n))
			n++
		}
		seal(a)
		if batch%3 == 2 {
			a.MergePartial(1 + batch%2)
		}
		for row := 0; row < n; row++ {
			av, bv := a.Get(row), b.Get(row)
			if av != bv {
				t.Fatalf("batch %d: row %d diverges: %q vs %q", batch, row, av, bv)
			}
		}
	}

	a.Merge(dict.FCBlock)
	b.Merge(dict.FCBlock)
	if ab, bb := a.DictBytes(), b.DictBytes(); ab != bb {
		t.Fatalf("dict bytes diverge after final merge: %d vs %d", ab, bb)
	}
	if ab, bb := a.VectorBytes(), b.VectorBytes(); ab != bb {
		t.Fatalf("vector bytes diverge after final merge: %d vs %d", ab, bb)
	}
}

// hotClock is an injected scheduler clock that reads time off the column's
// row count, as if the column appended rowsPerSec rows every second: every
// pass that sees new rows measures exactly that rate, however the passes
// interleave with the appender. It is safe for concurrent use.
func hotClock(c *StringColumn, rowsPerSec int) func() time.Time {
	return func() time.Time {
		return time.Unix(1000, 0).Add(time.Duration(c.Len()) * time.Second / time.Duration(rowsPerSec))
	}
}

// TestPartialPolicyEquivalenceConcurrent is the acceptance check: one
// deterministic writer drives two identical columns — one store merged by a
// partial-policy daemon on a hot column (hotClock), the other full-merged —
// while snapshot readers hammer both. The writer ticks the daemon every 500
// rows. After Close, Get, ScanEq and Snapshot results must be bit-identical
// between the two runs. Runs under -race via scripts/check.sh.
func TestPartialPolicyEquivalenceConcurrent(t *testing.T) {
	const rows = 12_000
	value := func(i int) string { return fmt.Sprintf("eq-%05d", (i*13)%700) }

	run := func(partial bool) *StringColumn {
		s := NewStore()
		col := s.AddTable("t").AddString("c", dict.FCBlock)
		m := NewMergeScheduler(s, 2000)
		m.now = hotClock(col, 5000)
		ticks := make(chan time.Time)
		m.newTicker = func(time.Duration) (<-chan time.Time, func()) { return ticks, func() {} }
		m.PartialMerges = partial
		m.Parallelism = 2
		m.Start(context.Background())

		var wg sync.WaitGroup
		stop := make(chan struct{})
		// Snapshot readers race the daemon; they cannot affect state, so
		// the written data stays deterministic.
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				var buf []int
				for {
					select {
					case <-stop:
						return
					default:
					}
					snap := col.Snapshot()
					if n := snap.Len(); n > 0 {
						row := (r * 7919) % n
						if got := snap.Get(row); got == "" {
							panic("empty value")
						}
						buf = snap.ScanEq(value(r*31), buf[:0])
					}
				}
			}(r)
		}
		for i := 0; i < rows; i++ {
			col.Append(value(i))
			if i%500 == 499 {
				ticks <- time.Time{}
			}
		}
		close(stop)
		wg.Wait()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if partial {
			if st := m.ColumnMergeStats("t.c"); st.Partial == 0 {
				t.Fatalf("partial run did no partial folds: %+v", st)
			}
		}
		return col
	}

	pc := run(true)
	fc := run(false)

	if pc.Len() != rows || fc.Len() != rows {
		t.Fatalf("row counts %d / %d, want %d", pc.Len(), fc.Len(), rows)
	}
	for row := 0; row < rows; row++ {
		if pv, fv := pc.Get(row), fc.Get(row); pv != fv {
			t.Fatalf("Get(%d): %q vs %q", row, pv, fv)
		}
	}
	ps, fs := pc.Snapshot(), fc.Snapshot()
	if ps.DictLen() != fs.DictLen() {
		t.Fatalf("dict len %d vs %d", ps.DictLen(), fs.DictLen())
	}
	var pr, fr []int
	for i := 0; i < 40; i++ {
		probe := value(i * 101)
		pr = ps.ScanEq(probe, pr[:0])
		fr = fs.ScanEq(probe, fr[:0])
		if len(pr) != len(fr) {
			t.Fatalf("ScanEq(%q): %d vs %d rows", probe, len(pr), len(fr))
		}
		for k := range pr {
			if pr[k] != fr[k] {
				t.Fatalf("ScanEq(%q)[%d]: row %d vs %d", probe, k, pr[k], fr[k])
			}
		}
		plo, phi := ps.CodeRange(probe, probe+"~")
		flo, fhi := fs.CodeRange(probe, probe+"~")
		if plo != flo || phi != fhi {
			t.Fatalf("CodeRange(%q): [%d,%d) vs [%d,%d)", probe, plo, phi, flo, fhi)
		}
	}
}

// TestPartialPolicyKeepsFormatUnderChooser: the partial path must not
// consult the Chooser — a chooser that would switch formats on every merge
// sees only full merges, and a hot column takes none.
func TestPartialPolicyKeepsFormatUnderChooser(t *testing.T) {
	s := NewStore()
	col := s.AddTable("t").AddString("c", dict.FCBlock)
	m := NewMergeScheduler(s, 100)
	m.now = hotClock(col, 5000) // 50x the threshold: every pass is hot
	m.PartialMerges = true
	m.Chooser = func(snap *Snapshot, _ float64) dict.Format {
		return dict.Array // would change the format if consulted
	}
	for i := 0; i < 2000; i++ {
		col.Append(fmt.Sprintf("p%05d", i))
		if i%50 == 49 {
			m.Tick()
		}
	}

	st := m.ColumnMergeStats("t.c")
	if st.Partial == 0 {
		t.Fatalf("hot column did no partial folds: %+v", st)
	}
	if st.Full != 0 {
		t.Fatalf("hot column took %d full merges under the partial policy", st.Full)
	}
	if got := col.Format(); got != dict.FCBlock {
		t.Fatalf("partial policy changed format to %s", got)
	}
}

// TestHotRuleBoundary pins the one partial-fold trigger: a pass folds
// partially iff the column's append-rate estimate is at least
// DeltaRowThreshold rows/s, and Flush merges fully even on a hot column.
func TestHotRuleBoundary(t *testing.T) {
	const threshold = 10
	// run appends threshold rows over elapsed, between a baseline pass over
	// the empty column and one measured pass (Flush on a drain), and returns
	// the resulting merge counters.
	run := func(elapsed time.Duration, drain bool) MergeStats {
		s := NewStore()
		c := s.AddTable("t").AddString("c", dict.Array)
		m := NewMergeScheduler(s, threshold)
		m.PartialMerges = true
		clock := time.Unix(1000, 0)
		m.now = func() time.Time { return clock }
		m.Tick()
		for i := 0; i < threshold; i++ {
			c.Append(fmt.Sprintf("v%02d", i))
		}
		clock = clock.Add(elapsed)
		if drain {
			m.Flush()
		} else {
			m.Tick()
		}
		return m.ColumnMergeStats("t.c")
	}
	for _, tc := range []struct {
		name          string
		elapsed       time.Duration
		drain         bool
		full, partial int
	}{
		{"at the threshold rate", time.Second, false, 0, 1},
		{"just below it", time.Second + time.Millisecond, false, 1, 0},
		{"flush at the threshold rate", time.Second, true, 1, 0},
	} {
		if st := run(tc.elapsed, tc.drain); st.Full != tc.full || st.Partial != tc.partial {
			t.Errorf("%s: %+v, want %d full and %d partial", tc.name, st, tc.full, tc.partial)
		}
	}
}
