package colstore_test

import (
	"fmt"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
	"strdict/internal/persist"
)

// checkCounts is the count-table oracle on c's current version: the
// snapshot's first call, a CountEq of its smallest value, builds the table
// (unless the dictionary is empty) at the cost of one locate and no
// extract; every table entry equals the CountEq kernel on the code vector,
// and the entries sum to the main rows; CountEq agrees with ScanEq on every
// dictionary value and an absent probe. It returns the table's holder.
func checkCounts(t *testing.T, step string, c *colstore.StringColumn) any {
	t.Helper()
	s := c.Snapshot()
	defer s.Release()
	values := append(s.DictValues(), "absent")
	c.ResetStats()
	s.CountEq(values[0])
	s.Release()
	if st := c.Stats(); st != (colstore.AccessStats{Locates: 1}) {
		t.Fatalf("%s: first CountEq cost %+v, want 1 locate and 0 extracts", step, st)
	}
	holder, table := colstore.CountTableOf(s)
	_, codes, _ := c.MainParts()
	if (table == nil) != (s.DictLen() == 0) || table != nil && table.Len() != s.DictLen() {
		t.Fatalf("%s: count table %v for %d value IDs", step, table, s.DictLen())
	}
	sum := 0
	for id := range s.DictLen() {
		got, want := int(table.Get(id)), intcomp.CountEq(codes, uint64(id), 0, s.MainRows())
		if got != want {
			t.Fatalf("%s: count table[%d] = %d, kernel %d", step, id, got, want)
		}
		sum += got
	}
	if sum != s.MainRows() {
		t.Fatalf("%s: counts sum to %d, main part has %d rows", step, sum, s.MainRows())
	}
	for _, v := range values {
		if got, want := s.CountEq(v), len(s.ScanEq(v, nil)); got != want {
			t.Fatalf("%s: CountEq(%q) = %d, ScanEq %d rows", step, v, got, want)
		}
	}
	return holder
}

// unbuiltHolder returns the holder of c's count table and fails unless the
// table is still unbuilt: no producer builds it eagerly.
func unbuiltHolder(t *testing.T, step string, c *colstore.StringColumn) any {
	t.Helper()
	s := c.Snapshot()
	defer s.Release()
	holder, table := colstore.CountTableOf(s)
	if table != nil {
		t.Fatalf("%s: count table built before any count", step)
	}
	return holder
}

// TestCountTableMatchesKernel drives a persistent column through every
// producer of a main part — the empty column, a first Merge, a Merge whose
// new values shift old IDs, a Merge with no new value, a seal, MergePartial,
// Rebuild and RestoreMain through recovery — on code vectors that PackAuto
// packs bit-packed, RLE and FOR, checking the count table after each
// (checkCounts). A seal and a Rebuild share the code vector and so the
// built table; every producer that writes a new code vector starts an
// empty one.
func TestCountTableMatchesKernel(t *testing.T) {
	const rows = 6000
	for _, tc := range []struct {
		kind string          // the first merge's code vector, as %T prints it
		id   func(i int) int // row -> value index
	}{
		{"intcomp.packedVector", func(i int) int { return i * 7919 % 211 }},
		{"intcomp.rleVector", func(i int) int { return i / 100 }},
		{"*intcomp.forVector", func(i int) int { return i/2 + i%2*5 }},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			dir := t.TempDir()
			st, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := st.AddTable("t").AddString("c", dict.Array)
			value := func(k int) string { return fmt.Sprintf("v%05d", 2*k) }
			appendRows := func(from, to int) {
				for i := from; i < to; i++ {
					c.Append(value(tc.id(i)))
				}
			}
			fresh := func(step string, prev any) any {
				t.Helper()
				h := unbuiltHolder(t, step, c)
				if h == prev {
					t.Fatalf("%s: new code vector kept the old count table", step)
				}
				if got := checkCounts(t, step, c); got != h {
					t.Fatalf("%s: counting replaced the holder", step)
				}
				return h
			}

			h := fresh("empty column", nil)
			appendRows(0, rows)
			c.Merge(dict.Array)
			if _, codes, _ := c.MainParts(); fmt.Sprintf("%T", codes) != tc.kind {
				t.Fatalf("first merge packed a %T", codes)
			}
			h = fresh("first merge", h)
			// ScanEq sizes its output from the count table: one allocation
			// more than a probe that matches nothing.
			snap, hot := c.Snapshot(), value(tc.id(0))
			base := testing.AllocsPerRun(5, func() { snap.ScanEq("absent", nil) })
			if n := testing.AllocsPerRun(5, func() { snap.ScanEq(hot, nil) }); n != base+1 && !colstore.RaceBuild {
				t.Fatalf("ScanEq(%q) made %v allocations for %d rows, an absent probe %v", hot, n, snap.CountEq(hot), base)
			}

			// Odd suffixes sort between the existing values: old IDs shift.
			for i := range 50 {
				c.Append(value(tc.id(i*97)) + "!")
			}
			if res := c.Merge(dict.Array); !res.DictBuilt {
				t.Fatalf("shifting merge: %+v", res)
			}
			h = fresh("merge shifting old IDs", h)
			appendRows(0, 300)
			if res := c.Merge(dict.Array); res.Rewritten == 0 {
				t.Fatalf("merge without new values: %+v", res)
			}
			h = fresh("merge without new values", h)

			appendRows(300, 400)
			colstore.SealActive(c)
			if got, _ := colstore.CountTableOf(c.Snapshot()); got != h {
				t.Fatal("seal did not share the count table")
			}
			checkCounts(t, "sealed segment", c)
			appendRows(400, 500)
			if res := c.MergePartial(1); res.Folded != 100 {
				t.Fatalf("partial merge: %+v", res)
			}
			h = fresh("partial merge", h)
			c.Rebuild(dict.FCBlock)
			if got, table := colstore.CountTableOf(c.Snapshot()); got != h || table == nil {
				t.Fatal("Rebuild did not share the built count table")
			}
			checkCounts(t, "rebuild", c)

			c.Merge(dict.FCBlock)
			if err := st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			c = st.Table("t").Str("c")
			if c.DeltaRows() != 0 || c.Len() != rows+550 {
				t.Fatalf("recovered %d rows, %d in the delta", c.Len(), c.DeltaRows())
			}
			fresh("recovered main part", h)
		})
	}
}
