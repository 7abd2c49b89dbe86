package colstore

import (
	"fmt"
	"testing"

	"strdict/internal/dict"
)

// TestSnapshotPinsStateAcrossMerge: a snapshot must keep serving the exact
// state it pinned — Len, values, format, value IDs — while the live column
// moves on through appends, merges and rebuilds.
func TestSnapshotPinsStateAcrossMerge(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	for i := 0; i < 100; i++ {
		c.Append(fmt.Sprintf("v%03d", i%40))
	}
	c.Merge(dict.Array)
	c.Append("unmerged-1") // one active delta row in the snapshot
	snap := c.Snapshot()

	wantLen := snap.Len()
	wantFormat := snap.Format()
	wantVals := make([]string, wantLen)
	for i := range wantVals {
		wantVals[i] = snap.Get(i)
	}
	id40, ok := snap.Locate("v039")
	if !ok {
		t.Fatal("Locate failed on snapshot")
	}

	// The column moves on: more rows, a format-changing merge, a rebuild.
	for i := 0; i < 50; i++ {
		c.Append(fmt.Sprintf("new%03d", i))
	}
	c.Merge(dict.FCBlock)
	c.Rebuild(dict.FCInline)

	if c.Len() != wantLen+50 || c.Format() != dict.FCInline {
		t.Fatalf("live column did not move on: len %d, format %s", c.Len(), c.Format())
	}
	if snap.Len() != wantLen {
		t.Fatalf("snapshot Len moved: %d -> %d", wantLen, snap.Len())
	}
	if snap.Format() != wantFormat {
		t.Fatalf("snapshot format moved: %s -> %s", wantFormat, snap.Format())
	}
	for i, want := range wantVals {
		if got := snap.Get(i); got != want {
			t.Fatalf("snapshot Get(%d) = %q, want %q", i, got, want)
		}
	}
	if id, _ := snap.Locate("v039"); id != id40 {
		t.Fatalf("snapshot value ID moved: %d -> %d", id40, id)
	}
	// Code/Extract round-trip within the snapshot stays coherent.
	if code, ok := snap.Code(39); ok {
		if got := snap.Extract(code); got != wantVals[39] {
			t.Fatalf("snapshot Code/Extract mismatch: %q vs %q", got, wantVals[39])
		}
	} else {
		t.Fatal("Code(39) not in main part")
	}
}

// TestSnapshotCoversAllThreeParts builds a column with main rows, a sealed
// delta segment, and active rows, then checks Get/ScanEq/Len agree across
// the three storage classes on both the live column and a snapshot.
func TestSnapshotCoversAllThreeParts(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	for _, v := range []string{"m1", "m2", "m1"} {
		c.Append(v)
	}
	c.Merge(dict.Array) // 3 main rows
	for _, v := range []string{"s1", "m1", "s2"} {
		c.Append(v)
	}
	c.sealActive() // 3 sealed rows
	for _, v := range []string{"a1", "m1", "s1"} {
		c.Append(v) // 3 active rows
	}

	want := []string{"m1", "m2", "m1", "s1", "m1", "s2", "a1", "m1", "s1"}
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	if c.DeltaRows() != 6 {
		t.Fatalf("DeltaRows = %d, want 6 (3 sealed + 3 active)", c.DeltaRows())
	}
	for i, w := range want {
		if got := c.Get(i); got != w {
			t.Fatalf("live Get(%d) = %q, want %q", i, got, w)
		}
	}

	snap := c.Snapshot()
	if snap.Len() != len(want) || snap.MainRows() != 3 || snap.DeltaRows() != 6 {
		t.Fatalf("snapshot shape: len %d main %d delta %d", snap.Len(), snap.MainRows(), snap.DeltaRows())
	}
	for i, w := range want {
		if got := snap.Get(i); got != w {
			t.Fatalf("snapshot Get(%d) = %q, want %q", i, got, w)
		}
	}
	// ScanEq must find m1 in main (rows 0, 2), sealed (4) and active (7).
	for _, h := range []struct {
		probe string
		rows  []int
	}{
		{"m1", []int{0, 2, 4, 7}},
		{"s1", []int{3, 8}},
		{"a1", []int{6}},
		{"absent", nil},
	} {
		got := snap.ScanEq(h.probe, nil)
		if len(got) != len(h.rows) {
			t.Fatalf("ScanEq(%q) = %v, want %v", h.probe, got, h.rows)
		}
		for i := range h.rows {
			if got[i] != h.rows[i] {
				t.Fatalf("ScanEq(%q) = %v, want %v", h.probe, got, h.rows)
			}
		}
		fresh := c.Snapshot().ScanEq(h.probe, nil)
		if fmt.Sprint(fresh) != fmt.Sprint(got) {
			t.Fatalf("fresh snapshot ScanEq(%q) = %v, first snapshot %v", h.probe, fresh, got)
		}
	}

	// Merging folds sealed + active into main; data unchanged.
	c.Merge(dict.FCBlock)
	if c.DeltaRows() != 0 {
		t.Fatalf("DeltaRows after merge = %d", c.DeltaRows())
	}
	for i, w := range want {
		if got := c.Get(i); got != w {
			t.Fatalf("post-merge Get(%d) = %q, want %q", i, got, w)
		}
	}
	// The old snapshot still serves the pre-merge view.
	for i, w := range want {
		if got := snap.Get(i); got != w {
			t.Fatalf("stale snapshot Get(%d) = %q, want %q", i, got, w)
		}
	}
}

// TestMergeMultipleSealedSegments: a merge must fold every sealed segment,
// including duplicate values appearing in several segments, into one
// dictionary with correct codes.
func TestMergeMultipleSealedSegments(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	var want []string
	for seg := 0; seg < 4; seg++ {
		for i := 0; i < 10; i++ {
			v := fmt.Sprintf("dup-%02d", i) // same values in every segment
			c.Append(v)
			want = append(want, v)
		}
		c.sealActive()
	}
	c.Merge(dict.FCInline)
	if c.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", c.Len(), len(want))
	}
	if c.DictLen() != 10 {
		t.Fatalf("DictLen = %d, want 10 (cross-segment duplicates collapsed)", c.DictLen())
	}
	for i, w := range want {
		if got := c.Get(i); got != w {
			t.Fatalf("Get(%d) = %q, want %q", i, got, w)
		}
	}
}

// TestSnapshotFastPathNoTail: a fully merged column's snapshot takes the
// lock-free fast path and must still be complete.
func TestSnapshotFastPathNoTail(t *testing.T) {
	c := NewStringColumn("t.c", dict.FCBlock)
	for i := 0; i < 64; i++ {
		c.Append(fmt.Sprintf("x%04d", i))
	}
	c.Merge(dict.FCBlock)
	snap := c.Snapshot()
	if snap.tail.rows != nil || snap.tail.vals != nil {
		t.Fatal("fast-path snapshot captured a tail")
	}
	if snap.Len() != 64 || snap.DeltaRows() != 0 {
		t.Fatalf("snapshot shape: len %d delta %d", snap.Len(), snap.DeltaRows())
	}
	if got := snap.Get(63); got != "x0063" {
		t.Fatalf("Get(63) = %q", got)
	}
}

// TestSnapshotTailEdgeCases pins every scan of the captured active prefix
// to the Get oracle where the prefix and the live active index it probes
// part ways (values appended after the snapshot, the index sealed and
// folded away) or the prefix is degenerate: values only the tail holds,
// range bounds between them, empty ranges, an empty tail.
func TestSnapshotTailEdgeCases(t *testing.T) {
	probes := []string{"m1", "m3", "t2", "t4", "t6", "t3", "late", "after", ""}
	ranges := [][2]string{
		{"t1", "t3"}, {"t2", "t4"}, {"t3", "t5"}, {"t21", "t3"}, {"t5", "t6"},
		{"t4", "t4"}, {"t6", "t2"}, {"m3", "t2"}, {"", "\xff"},
	}
	check := func(label string, snap *Snapshot, vals []string) {
		t.Helper()
		for _, p := range probes {
			for _, r := range ranges {
				scanOracle(t, snap, vals, label, p, r[0], r[1])
			}
			if n, rows := snap.CountEq(p), snap.ScanEq(p, nil); n != len(rows) {
				t.Fatalf("%s: CountEq(%q) = %d, len(ScanEq) = %d", label, p, n, len(rows))
			}
		}
	}

	c := NewStringColumn("t.c", dict.FCBlock)
	for _, v := range []string{"m1", "m3", "m5", "m3"} {
		c.Append(v)
	}
	c.Merge(dict.FCBlock)
	empty := c.Snapshot()
	check("empty tail", empty, snapshotValues(empty))
	for _, v := range []string{"t2", "t4", "t2", "m3", "t6"} {
		c.Append(v)
	}
	snap := c.Snapshot()
	vals := snapshotValues(snap)
	check("tail-only values", snap, vals)

	// New values and new rows of old values in the same active segment: the
	// live index now holds codes past the snapshot's prefix.
	for _, v := range []string{"late", "t2", "t3", "m1"} {
		c.Append(v)
	}
	check("appended after the snapshot", snap, vals)
	fresh := c.Snapshot()
	check("fresh snapshot", fresh, snapshotValues(fresh))

	// The prefix's index is handed to a sealed segment and folded away; a
	// new active segment starts with an index the old snapshot never saw.
	c.Merge(dict.Array)
	c.Append("after")
	check("tail sealed and folded", snap, vals)
	if snap.Len() != len(vals) {
		t.Fatalf("snapshot Len moved: %d -> %d", len(vals), snap.Len())
	}

	c.sealActive()
	sealedOnly := c.Snapshot()
	check("sealed segment, empty tail", sealedOnly, snapshotValues(sealedOnly))
}
