package colstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"strdict/internal/dict"
)

func TestAppendGetRoundTrip(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	vals := []string{"delta", "alpha", "charlie", "alpha", "bravo", "alpha"}
	for _, v := range vals {
		c.Append(v)
	}
	if c.Len() != len(vals) {
		t.Fatalf("Len = %d", c.Len())
	}
	for i, want := range vals {
		if got := c.Get(i); got != want {
			t.Fatalf("Get(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestMergePreservesRows(t *testing.T) {
	for _, format := range []dict.Format{dict.Array, dict.FCBlock, dict.ArrayRP12, dict.ColumnBC} {
		c := NewStringColumn("t.c", dict.Array)
		vals := []string{"m", "z", "a", "m", "q", "a", "a"}
		for _, v := range vals {
			c.Append(v)
		}
		c.Merge(format)
		if c.Format() != format {
			t.Fatalf("format %s after merge, want %s", c.Format(), format)
		}
		if c.DictLen() != 4 {
			t.Fatalf("DictLen = %d, want 4", c.DictLen())
		}
		for i, want := range vals {
			if got := c.Get(i); got != want {
				t.Fatalf("%s: Get(%d) = %q, want %q", format, i, got, want)
			}
		}
	}
}

func TestIncrementalMerges(t *testing.T) {
	c := NewStringColumn("t.c", dict.FCBlock)
	rng := rand.New(rand.NewSource(5))
	var all []string
	for round := 0; round < 5; round++ {
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("val-%04d", rng.Intn(300))
			all = append(all, v)
			c.Append(v)
		}
		c.Merge(dict.FCBlock)
	}
	for i, want := range all {
		if got := c.Get(i); got != want {
			t.Fatalf("after merges: Get(%d) = %q, want %q", i, got, want)
		}
	}
	// Dictionary holds exactly the distinct values.
	distinct := map[string]bool{}
	for _, v := range all {
		distinct[v] = true
	}
	if c.DictLen() != len(distinct) {
		t.Fatalf("DictLen = %d, want %d", c.DictLen(), len(distinct))
	}
}

func TestMergeQuick(t *testing.T) {
	f := func(vals []string, fmtIdx uint8) bool {
		clean := vals[:0]
		for _, v := range vals {
			ok := true
			for i := 0; i < len(v); i++ {
				if v[i] == 0 {
					ok = false
				}
			}
			if ok {
				clean = append(clean, v)
			}
		}
		format := dict.Format(int(fmtIdx) % dict.NumFormats())
		c := NewStringColumn("t.c", dict.Array)
		for _, v := range clean {
			c.Append(v)
		}
		c.Merge(format)
		for i, want := range clean {
			if c.Get(i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCodeRangeMatchesStrings(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, fmt.Sprintf("k%04d", i*3))
	}
	for _, v := range vals {
		c.Append(v)
	}
	c.Merge(dict.ArrayHU)
	snap := c.Snapshot()
	lo, hi := snap.CodeRange("k0300", "k0600")
	// Count rows whose code is in range; must equal the string comparison.
	want := 0
	for _, v := range vals {
		if v >= "k0300" && v < "k0600" {
			want++
		}
	}
	got := 0
	for row := 0; row < c.Len(); row++ {
		if code, ok := snap.Code(row); ok && code >= lo && code < hi {
			got++
		}
	}
	if got != want {
		t.Fatalf("range scan found %d rows, want %d", got, want)
	}
}

func TestScanEq(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	vals := []string{"x", "y", "x", "z"}
	for _, v := range vals {
		c.Append(v)
	}
	c.Merge(dict.Array)
	c.Append("x") // one delta row
	snap := c.Snapshot()
	rows := snap.ScanEq("x", nil)
	want := []int{0, 2, 4}
	if len(rows) != len(want) {
		t.Fatalf("rows %v, want %v", rows, want)
	}
	for i := range want {
		if rows[i] != want[i] {
			t.Fatalf("rows %v, want %v", rows, want)
		}
	}
	if rows := snap.ScanEq("absent", nil); len(rows) != 0 {
		t.Fatalf("found rows for absent value: %v", rows)
	}
}

func TestStatsCounting(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	c.Append("a")
	c.Append("b")
	c.Merge(dict.Array)
	c.ResetStats()

	c.Get(0) // extract
	c.Get(1) // extract
	snap := c.Snapshot()
	snap.Locate("a")  // locate
	snap.Extract(0)   // extract
	snap.DictValues() // must NOT count
	snap.Release()    // counts reach the column on Release

	s := c.Stats()
	if s.Extracts != 3 {
		t.Errorf("extracts = %d, want 3", s.Extracts)
	}
	if s.Locates != 1 {
		t.Errorf("locates = %d, want 1", s.Locates)
	}
	c.ResetStats()
	if s := c.Stats(); s.Extracts != 0 || s.Locates != 0 {
		t.Error("ResetStats did not zero counters")
	}
}

func TestRebuildKeepsIDs(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	for i := 0; i < 100; i++ {
		c.Append(fmt.Sprintf("w%03d", i%37))
	}
	c.Merge(dict.Array)
	idBefore, _ := c.Snapshot().Locate("w010")
	before := make([]string, c.Len())
	for i := range before {
		before[i] = c.Get(i)
	}
	c.Rebuild(dict.FCBlockRP12)
	idAfter, _ := c.Snapshot().Locate("w010")
	if idBefore != idAfter {
		t.Fatalf("value ID changed across rebuild: %d -> %d", idBefore, idAfter)
	}
	for i := range before {
		if c.Get(i) != before[i] {
			t.Fatalf("row %d changed across rebuild", i)
		}
	}
}

func TestBytesBreakdown(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	for i := 0; i < 1000; i++ {
		c.Append(fmt.Sprintf("value-%05d", i))
	}
	c.Merge(dict.Array)
	if c.Bytes() != c.DictBytes()+c.VectorBytes() {
		t.Fatalf("Bytes %d != dict %d + vector %d", c.Bytes(), c.DictBytes(), c.VectorBytes())
	}
	if c.VectorBytes() == 0 || c.DictBytes() == 0 {
		t.Fatal("zero component size")
	}
}

func TestTableAndStore(t *testing.T) {
	s := NewStore()
	tb := s.AddTable("orders")
	key := tb.AddString("o_orderkey", dict.Array)
	tb.AddInt64("o_date")
	tb.AddFloat64("o_total")
	for i := 0; i < 10; i++ {
		key.Append(fmt.Sprintf("%010d", i))
		tb.Int("o_date").Append(int64(8000 + i))
		tb.Float("o_total").Append(float64(i) * 1.5)
	}
	tb.MergeAll()
	if tb.Rows() != 10 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	if got := s.Table("orders").Str("o_orderkey").Get(3); got != "0000000003" {
		t.Fatalf("Get = %q", got)
	}
	if s.Bytes() == 0 {
		t.Fatal("store bytes zero")
	}
	if len(s.StringColumns()) != 1 {
		t.Fatalf("StringColumns = %d", len(s.StringColumns()))
	}
	s.ResetStats()
	if st := key.Stats(); st.Extracts != 0 {
		t.Fatal("ResetStats on store failed")
	}
}

func TestDictValuesSorted(t *testing.T) {
	c := NewStringColumn("t.c", dict.Array)
	for _, v := range []string{"pear", "apple", "fig", "apple"} {
		c.Append(v)
	}
	c.Merge(dict.FCInline)
	snap := c.Snapshot()
	defer snap.Release()
	vals := snap.DictValues()
	if !sort.StringsAreSorted(vals) {
		t.Fatalf("dict values not sorted: %v", vals)
	}
	if len(vals) != 3 {
		t.Fatalf("%d distinct values", len(vals))
	}
}

func TestUnknownColumnPanics(t *testing.T) {
	tb := NewTable("t")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Str("missing")
}

func BenchmarkColumnGet(b *testing.B) {
	c := NewStringColumn("t.c", dict.Array)
	for i := 0; i < 100000; i++ {
		c.Append(fmt.Sprintf("supplier#%07d", i%5000))
	}
	c.Merge(dict.FCBlock)
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.AppendGet(buf[:0], i%100000)
	}
}
