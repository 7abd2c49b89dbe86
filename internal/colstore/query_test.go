package colstore

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
	tr := translateCodes(ss, ds)
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
	idx := c.Snapshot().rowIndexByCode(c.Len())
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
	var n int
	for code := uint32(0); code < uint32(snap.DictLen()); code++ {
		if set.Has(code) {
			n++
			if !strings.HasPrefix(snap.Extract(code), "apple") {
				t.Fatal("wrong code in set")
			}
		}
	}
	if n != 2 {
		t.Fatalf("set %v holds %d codes, want 2", set, n)
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
			tr := translateCodes(src, dst)
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

// TestCodesAndJoinAgainstModel checks the two TableView operators against a
// brute-force model over random columns: Codes equals Snapshot.Code row by
// row (NoCode where a row has no value ID), Join equals "the last main-part
// row of the key column holding the same value, else -1" — with keys absent
// from the key column, repeated keys, an unmerged tail on either side, an
// empty main part, and rows appended (and merged) after the view fixed its
// row counts, which the outputs must not cover.
func TestCodesAndJoinAgainstModel(t *testing.T) {
	shapes := []struct {
		name                             string
		fkMain, fkTail, keyMain, keyTail int
		late                             int // rows appended after the view opened
		mergeLate                        bool
	}{
		{name: "merged", fkMain: 700, keyMain: 300},
		{name: "fk tail", fkMain: 400, fkTail: 300, keyMain: 300},
		{name: "key tail", fkMain: 700, keyMain: 150, keyTail: 150},
		{name: "empty main", fkTail: 500, keyTail: 200},
		{name: "late appends", fkMain: 500, fkTail: 50, keyMain: 200, keyTail: 20, late: 300},
		{name: "late appends merged", fkMain: 500, fkTail: 50, keyMain: 200, keyTail: 20, late: 300, mergeLate: true},
	}
	formats := []dict.Format{dict.Array, dict.FCBlock, dict.ColumnBC, dict.ArrayRP12}
	rng := rand.New(rand.NewSource(23))
	value := func() string { return fmt.Sprintf("key%05d", rng.Intn(400)) } // repeats, and misses on either side
	for _, sh := range shapes {
		for i, format := range formats {
			keyFormat := formats[(i+1)%len(formats)]
			s := NewStore()
			fk := s.AddTable("f").AddString("fk", format)
			key := s.AddTable("k").AddString("key", keyFormat)
			var fkModel, keyModel []string
			fill := func(c *StringColumn, model *[]string, n int) {
				for ; n > 0; n-- {
					v := value()
					c.Append(v)
					*model = append(*model, v)
				}
			}
			fill(fk, &fkModel, sh.fkMain)
			fill(key, &keyModel, sh.keyMain)
			if sh.fkMain > 0 {
				fk.Merge(format)
			}
			if sh.keyMain > 0 {
				key.Merge(keyFormat)
			}
			fill(fk, &fkModel, sh.fkTail)
			fill(key, &keyModel, sh.keyTail)

			view := s.View()
			ft, kt := view.Table("f"), view.Table("k")
			fill(fk, &fkModel, sh.late)
			fill(key, &keyModel, sh.late)
			if sh.mergeLate {
				fk.Merge(format)
				key.Merge(keyFormat)
			}
			fkN, keyN := sh.fkMain+sh.fkTail, sh.keyMain+sh.keyTail
			if ft.Rows() != fkN || kt.Rows() != keyN {
				t.Fatalf("%s/%s: view rows %d and %d, want %d and %d", sh.name, format, ft.Rows(), kt.Rows(), fkN, keyN)
			}

			codes := ft.Codes("fk")
			joined := ft.Join("fk", kt, "key")
			if len(codes) != fkN || len(joined) != fkN {
				t.Fatalf("%s/%s: %d codes and %d joined rows, want %d each", sh.name, format, len(codes), len(joined), fkN)
			}
			lastRowOf := make(map[string]int32)
			for row := 0; row < keyN && row < kt.Str("key").MainRows(); row++ {
				lastRowOf[keyModel[row]] = int32(row)
			}
			for row := range codes {
				wantCode, hasCode := ft.Str("fk").Code(row)
				wantRow, found := lastRowOf[fkModel[row]]
				if !hasCode {
					wantCode = NoCode
				}
				if !hasCode || !found {
					wantRow = -1
				}
				if codes[row] != wantCode || joined[row] != wantRow {
					t.Fatalf("%s/%s: row %d (%q): code %d joins key row %d, want code %d and key row %d",
						sh.name, format, row, fkModel[row], codes[row], joined[row], wantCode, wantRow)
				}
			}
			view.Release()
		}
	}
}

// TestJoinCost: a join costs one dictionary translation — DictLen(fk)
// extracts on the foreign key, as many locates on the key — and Codes costs
// no dictionary operation at all.
func TestJoinCost(t *testing.T) {
	s := NewStore()
	fk := s.AddTable("f").AddString("fk", dict.FCBlock)
	key := s.AddTable("k").AddString("key", dict.Array)
	for i := 0; i < 300; i++ {
		fk.Append(fmt.Sprintf("k%03d", i%40))
	}
	for i := 0; i < 50; i++ {
		key.Append(fmt.Sprintf("k%03d", i))
	}
	fk.Merge(dict.FCBlock)
	key.Merge(dict.Array)
	s.ResetStats()

	view := s.View()
	view.Table("f").Codes("fk")
	view.Table("k").Codes("key")
	view.Table("f").Join("fk", view.Table("k"), "key")
	view.Release()
	if st := fk.Stats(); st != (AccessStats{Extracts: 40}) {
		t.Errorf("fk side: %+v, want 40 extracts and no locates", st)
	}
	if st := key.Stats(); st != (AccessStats{Locates: 40}) {
		t.Errorf("key side: %+v, want 40 locates and no extracts", st)
	}
}

// wantJoin is the brute-force model of ft.Join(fk, kt, keyCol), the one
// TestCodesAndJoinAgainstModel states: the last main-part row of the key
// column holding the same string, else -1. It goes through the strings of
// the view's own pinned snapshots — uncounted reads only, so it can run
// beside a check of the access counters — and through none of Join's code.
func wantJoin(ft *TableView, fk string, kt *TableView, keyCol string) []int32 {
	fs, ks := ft.Str(fk), kt.Str(keyCol)
	fkVals, keyVals := fs.DictValues(), ks.DictValues()
	lastRowOf := make(map[string]int32)
	for row := 0; row < kt.Rows() && row < ks.MainRows(); row++ {
		code, _ := ks.Code(row)
		lastRowOf[keyVals[code]] = int32(row)
	}
	want := make([]int32, ft.Rows())
	for row := range want {
		want[row] = -1
		if code, ok := fs.Code(row); ok {
			if keyRow, found := lastRowOf[fkVals[code]]; found {
				want[row] = keyRow
			}
		}
	}
	return want
}

// checkedJoin joins f.fk to keyTable.key on a fresh view, compares the
// result with wantJoin and reports the first difference.
func checkedJoin(s *Store, keyTable string) error {
	view := s.View()
	defer view.Release()
	ft, kt := view.Table("f"), view.Table(keyTable)
	got, want := ft.Join("fk", kt, "key"), wantJoin(ft, "fk", kt, "key")
	if len(got) != len(want) {
		return fmt.Errorf("join to %s: %d rows, want %d", keyTable, len(got), len(want))
	}
	for row := range want {
		if got[row] != want[row] {
			return fmt.Errorf("join to %s: row %d joins key row %d, want %d", keyTable, row, got[row], want[row])
		}
	}
	return nil
}

// TestJoinTranslationCache: Join translates a (fk dictionary, key column,
// key dictionary) triple once. A repeat and a fold that shares both
// dictionaries hit the cached table and cost no dictionary operation; a new
// dictionary on either side, or another key column, misses and pays exactly
// one translation; the table is part of the fk column's Bytes() until fold
// publishes a new fk dictionary; and joins racing a merge daemon that
// republishes both sides stay equal to the brute-force model.
func TestJoinTranslationCache(t *testing.T) {
	s := NewStore()
	fk := s.AddTable("f").AddString("fk", dict.FCBlock)
	key := s.AddTable("k").AddString("key", dict.Array)
	other := s.AddTable("o").AddString("key", dict.Array)
	for i := 0; i < 300; i++ {
		fk.Append(fmt.Sprintf("k%03d", i%40))
	}
	for i := 0; i < 50; i++ {
		key.Append(fmt.Sprintf("k%03d", i))
		other.Append(fmt.Sprintf("k%03d", 2*i))
	}
	fk.Merge(dict.FCBlock)
	key.Merge(dict.Array)
	other.Merge(dict.Array)

	// expect joins once and checks what the join cost: one translation —
	// DictLen(fk) extracts on fk, as many locates on the key — or nothing.
	expect := func(step, keyTable string, miss bool) {
		t.Helper()
		keyColumn := s.Table(keyTable).Str("key")
		s.ResetStats()
		if err := checkedJoin(s, keyTable); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var want uint64
		if miss {
			want = uint64(fk.DictLen())
		}
		if got := fk.Stats(); got != (AccessStats{Extracts: want}) {
			t.Fatalf("%s: fk side %+v, want %d extracts and no locates", step, got, want)
		}
		if got := keyColumn.Stats(); got != (AccessStats{Locates: want}) {
			t.Fatalf("%s: key side %+v, want %d locates and no extracts", step, got, want)
		}
	}
	bare := fk.Bytes()
	expect("first join", "k", true)
	expect("repeat", "k", false)
	if got, want := fk.Bytes(), bare+4*uint64(fk.DictLen()); got != want {
		t.Fatalf("fk.Bytes() = %d with a cached table, want %d", got, want)
	}

	fk.Append("k007") // known values only: the folds share the dictionaries
	key.Append("k049")
	if res := fk.MergePartial(1); res.DictBuilt || res.Folded != 1 {
		t.Fatalf("fk partial fold: %+v", res)
	}
	if res := key.MergePartial(1); res.DictBuilt || res.Folded != 1 {
		t.Fatalf("key partial fold: %+v", res)
	}
	expect("after identity-preserving partial folds", "k", false)

	fk.Append("k045")
	fk.Merge(dict.FCBlock)
	expect("after a full merge that adds an fk value", "k", true)
	key.Append("k050")
	key.Merge(dict.Array)
	expect("after a merge of the key column", "k", true)
	fk.Rebuild(dict.ArrayHU)
	expect("after a Rebuild of the fk column", "k", true)
	key.Rebuild(dict.FCInline)
	expect("after a Rebuild of the key column", "k", true)
	expect("repeat on the rebuilt columns", "k", false)
	expect("another key column", "o", true)
	expect("back to the first key column", "k", true)

	// fold drops the table with the dictionary it translated: rebuilt there
	// and back, the column is byte for byte what it was without one.
	withTable := fk.Bytes()
	fk.Rebuild(dict.FCBlock)
	fk.Rebuild(dict.ArrayHU)
	if got, want := fk.Bytes(), withTable-4*uint64(fk.DictLen()); got != want {
		t.Fatalf("fk.Bytes() = %d after fold published a new dictionary, want %d (table unreachable)", got, want)
	}

	// Joins against both key columns, on every goroutine, while a daemon
	// folds whatever has been appended at each tick and flips every format
	// it republishes.
	sched := NewMergeScheduler(s, 1)
	sched.Interval = time.Millisecond
	sched.Chooser = func(snap *Snapshot, _ float64) dict.Format {
		if snap.Format() == dict.Array {
			return dict.FCBlock
		}
		return dict.Array
	}
	sched.Start(context.Background())
	var wg sync.WaitGroup
	var stop atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50 || !stop.Load(); i++ {
				if err := checkedJoin(s, []string{"k", "o"}[(g+i)%2]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Each batch brings new values to all three columns and is folded by
	// the daemon before the next one: at least twenty republications each.
	for batch := 0; batch < 20; batch++ {
		for i := 0; i < 100; i++ {
			fk.Append(fmt.Sprintf("k%03d", (7*i+batch)%(45+4*batch)))
			if i%4 == 0 {
				key.Append(fmt.Sprintf("k%03d", 50+batch*25+i/4))
				other.Append(fmt.Sprintf("k%03d", (i+batch)%(100+batch)))
			}
		}
		waitFor(t, "the daemon to fold the batch", func() bool {
			return fk.DeltaRows() == 0 && key.DeltaRows() == 0 && other.DeltaRows() == 0
		})
	}
	stop.Store(true)
	wg.Wait()
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	if st := sched.ColumnMergeStats(fk.Name()); st.Full+st.Partial < 20 {
		t.Fatalf("the daemon republished fk %d times under the joins, want 20", st.Full+st.Partial)
	}
	// Whichever pair the goroutines left cached, a join and its repeat on
	// the drained columns end on a hit.
	if err := checkedJoin(s, "k"); err != nil {
		t.Fatal(err)
	}
	expect("repeat after the daemon drained", "k", false)
}
