package colstore

import (
	"fmt"
	"strings"
	"testing"

	"strdict/internal/dict"
)

func loadColumn(t *testing.T, format dict.Format, vals []string) *StringColumn {
	t.Helper()
	c := NewStringColumn("t.c", dict.Array)
	for _, v := range vals {
		c.Append(v)
	}
	c.Merge(format)
	return c
}

func TestTranslateCodes(t *testing.T) {
	src := loadColumn(t, dict.Array, []string{"b", "d", "f"})
	dst := loadColumn(t, dict.FCBlock, []string{"a", "b", "c", "d", "e"})
	ss, ds := src.Snapshot(), dst.Snapshot()
	tr := TranslateCodes(ss, ds)
	ss.Release()
	ds.Release()
	// src dict: b=0 d=1 f=2; dst dict: a..e -> b=1, d=3, f absent.
	want := []int64{1, 3, -1}
	if len(tr) != len(want) {
		t.Fatalf("len %d", len(tr))
	}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("tr[%d] = %d, want %d", i, tr[i], want[i])
		}
	}
	// Dictionary ops were counted (3 extracts on src, 3 locates on dst).
	if st := src.Stats(); st.Extracts < 3 {
		t.Errorf("src extracts %d", st.Extracts)
	}
	if st := dst.Stats(); st.Locates < 3 {
		t.Errorf("dst locates %d", st.Locates)
	}
}

func TestRowIndexByCode(t *testing.T) {
	c := loadColumn(t, dict.Array, []string{"k3", "k1", "k2"})
	idx := c.Snapshot().RowIndexByCode()
	// dict: k1=0 (row 1), k2=1 (row 2), k3=2 (row 0)
	want := []int32{1, 2, 0}
	for i := range want {
		if idx[i] != want[i] {
			t.Fatalf("idx[%d] = %d, want %d", i, idx[i], want[i])
		}
	}
}

func TestCodeSet(t *testing.T) {
	c := loadColumn(t, dict.FCInline, []string{"apple pie", "banana split", "apple cake", "cherry"})
	snap := c.Snapshot()
	set := snap.CodeSet(func(v string) bool { return strings.HasPrefix(v, "apple") })
	if len(set) != 2 {
		t.Fatalf("set %v", set)
	}
	for code := range set {
		if !strings.HasPrefix(snap.Extract(code), "apple") {
			t.Fatal("wrong code in set")
		}
	}
	snap.Release()
	// Predicate ran once per distinct value: 4 extracts.
	if st := c.Stats(); st.Extracts < 4 {
		t.Errorf("extracts %d", st.Extracts)
	}
}

func TestTranslateCodesAcrossFormats(t *testing.T) {
	// Translation is format-independent.
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%04d", i*3)
	}
	for _, f1 := range []dict.Format{dict.Array, dict.ArrayRP12} {
		for _, f2 := range []dict.Format{dict.FCBlock, dict.ColumnBC} {
			src := loadColumn(t, f1, vals[:150]).Snapshot()
			dst := loadColumn(t, f2, vals[50:]).Snapshot()
			tr := TranslateCodes(src, dst)
			for id := 0; id < src.DictLen(); id++ {
				v := src.Extract(uint32(id))
				if did := tr[id]; did >= 0 {
					if dst.Extract(uint32(did)) != v {
						t.Fatalf("%s->%s: translation mismatch for %q", f1, f2, v)
					}
				} else if wid, found := dst.Locate(v); found {
					t.Fatalf("%s->%s: %q marked absent but found at %d", f1, f2, v, wid)
				}
			}
		}
	}
}

// TestViewPinsEachColumnOnce: a view hands out the same *Snapshot for the
// same column however often it is touched, keeps that version and the
// table's row count while merges with a format change publish and rows are
// appended underneath it, and on Release flushes every pinned snapshot's
// trace counters and leaves no view live.
func TestViewPinsEachColumnOnce(t *testing.T) {
	s := NewStore()
	tbl := s.AddTable("t")
	c, n := tbl.AddString("c", dict.Array), tbl.AddInt64("n")
	for i, v := range []string{"k3", "k1", "k2"} {
		c.Append(v)
		n.Append(int64(i))
	}
	c.Merge(dict.Array)
	c.ResetStats()

	view := s.View()
	if live := s.LiveViews(); live != 1 {
		t.Fatalf("LiveViews = %d with one view open", live)
	}
	tv := view.Table("t")
	snap := tv.Str("c")
	id, _ := snap.Locate("k2")

	c.Append("k0") // shifts every ID once merged
	n.Append(3)
	c.Merge(dict.FCBlockRP12)

	if again := view.Table("t").Str("c"); again != snap {
		t.Fatal("second touch of t.c pinned a second snapshot")
	}
	if tv.Rows() != 3 || snap.Len() != 3 {
		t.Fatalf("view rows %d, snapshot rows %d, want 3 and 3", tv.Rows(), snap.Len())
	}
	if got := snap.Extract(id); got != "k2" || snap.Format() != dict.Array {
		t.Fatalf("pinned version moved: Extract(%d) = %q in %s", id, got, snap.Format())
	}
	if tv.Int("n") != n {
		t.Fatal("numeric columns are served live")
	}
	if st := c.Stats(); st.Locates != 0 || st.Extracts != 0 {
		t.Fatalf("counters %+v reached the column before Release", st)
	}
	view.Release()
	if st := c.Stats(); st.Locates != 1 || st.Extracts != 1 {
		t.Fatalf("counters after Release = %+v, want 1 locate and 1 extract", st)
	}
	if live := s.LiveViews(); live != 0 {
		t.Fatalf("LiveViews = %d after Release", live)
	}
}
