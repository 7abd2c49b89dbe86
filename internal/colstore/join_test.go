package colstore

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"strdict/internal/dict"
)

// TestJoinMapEdgeCases: the join map cached on the fk column is a map from
// fk value ID to key row below a row limit, and two of its reuses need the
// key's code vector rather than a dictionary translation.
//
//   - A key-side fold that shares the key dictionary and appends a row
//     repeating an existing key value re-derives the map through the key's
//     code vector: the fk rows of that value join the new row (the last row
//     wins), with no extract and no locate.
//   - A view whose key Rows() is below MainRows gets a map truncated to its
//     row count, and a truncated map is never reused for a larger limit: the
//     next full-size join misses and translates again. With a complete map
//     cached, a truncated view derives its own map with no dictionary
//     operation and leaves the complete one cached.
func TestJoinMapEdgeCases(t *testing.T) {
	s := NewStore()
	fk := s.AddTable("f").AddString("fk", dict.FCBlock)
	key := s.AddTable("k").AddString("key", dict.Array)
	for i := 0; i < 300; i++ {
		fk.Append(fmt.Sprintf("k%03d", i%60))
	}
	for i := 0; i < 50; i++ {
		key.Append(fmt.Sprintf("k%03d", i))
	}
	fk.Merge(dict.FCBlock)
	key.Merge(dict.Array)

	// join joins f.fk to k.key on view, checks the rows against wantJoin,
	// releases the view and checks the cost: a translation (DictLen(fk)
	// extracts on fk, as many locates on key) when miss, else nothing.
	join := func(step string, view *View, miss bool) []int32 {
		t.Helper()
		s.ResetStats()
		ft, kt := view.Table("f"), view.Table("k")
		got, want := ft.Join("fk", kt, "key"), wantJoin(ft, "fk", kt, "key")
		view.Release()
		for row := range want {
			if got[row] != want[row] {
				t.Fatalf("%s: row %d joins key row %d, want %d", step, row, got[row], want[row])
			}
		}
		var ops uint64
		if miss {
			ops = uint64(fk.DictLen())
		}
		if st := fk.Stats(); st != (AccessStats{Extracts: ops}) {
			t.Fatalf("%s: fk side %+v, want %d extracts and no locates", step, st, ops)
		}
		if st := key.Stats(); st != (AccessStats{Locates: ops}) {
			t.Fatalf("%s: key side %+v, want %d locates and no extracts", step, st, ops)
		}
		return got
	}

	join("first join", s.View(), true)
	key.Append("k007") // an existing value: the fold shares the dictionary
	if res := key.MergePartial(1); res.DictBuilt || res.Folded != 1 {
		t.Fatalf("key partial fold: %+v", res)
	}
	got := join("after a key fold that repeats k007", s.View(), false)
	for row := 7; row < len(got); row += 60 {
		if got[row] != 50 {
			t.Fatalf("fk row %d (k007) joins key row %d, want the appended row 50", row, got[row])
		}
	}

	// Rows k050..k059 arrive with a new dictionary after the view fixed
	// the key table at 51 rows; its key snapshot is pinned after the merge.
	truncated, late := s.View(), s.View()
	truncated.Table("k")
	late.Table("k")
	for i := 50; i < 60; i++ {
		key.Append(fmt.Sprintf("k%03d", i))
	}
	key.Merge(dict.Array)
	if got := join("a view below MainRows", truncated, true); got[50] != -1 {
		t.Fatalf("fk row 50 (k050) joins key row %d in a view of 51 key rows, want -1", got[50])
	}
	if got := join("the full view after a truncated one", s.View(), true); got[50] != 51 {
		t.Fatalf("fk row 50 (k050) joins key row %d, want 51", got[50])
	}
	// With the complete map cached, another truncated view derives its own
	// from it, and does not evict it.
	if got := join("a second view below MainRows", late, false); got[50] != -1 {
		t.Fatalf("fk row 50 (k050) joins key row %d in a view of 51 key rows, want -1", got[50])
	}
	join("repeat", s.View(), false)

	// A view fixed at 61 key rows whose snapshot sees 62, joined after the
	// complete map for 62 rows is cached, derives its own from that one.
	below := s.View()
	below.Table("k")
	key.Append("k003")
	if res := key.MergePartial(1); res.DictBuilt || res.Folded != 1 {
		t.Fatalf("key partial fold: %+v", res)
	}
	if got := join("the full view after a fold that repeats k003", s.View(), false); got[3] != 61 {
		t.Fatalf("fk row 3 (k003) joins key row %d, want the appended row 61", got[3])
	}
	if got := join("a view below MainRows, complete map cached", below, false); got[3] != 3 {
		t.Fatalf("fk row 3 (k003) joins key row %d in a view of 61 key rows, want 3", got[3])
	}
	join("the full view again", s.View(), false)
}

// BenchmarkJoin times the two TableView operators on a foreign key column
// of ~120,000 rows into a key column of 30,000 — lineitem's l_orderkey
// against orders at TPC-H sf 0.02 — with the join map warm: "rle" holds the
// keys in load order, 1 to 7 rows per key, which packs run-length encoded;
// "packed" holds them in random order, which packs bit-packed. Each
// operation opens and releases a View, as a query does.
func BenchmarkJoin(b *testing.B) {
	const keys = 30000
	rng := rand.New(rand.NewSource(1))
	s := NewStore()
	key := s.AddTable("k").AddString("key", dict.FCInline)
	for k := 0; k < keys; k++ {
		key.Append(fmt.Sprintf("%08d", 4*k))
	}
	key.Merge(dict.FCInline)
	sorted := s.AddTable("rle").AddString("fk", dict.FCInline)
	random := s.AddTable("packed").AddString("fk", dict.FCInline)
	for k := 0; k < keys; k++ {
		for n := 1 + rng.Intn(7); n > 0; n-- {
			sorted.Append(fmt.Sprintf("%08d", 4*k))
			random.Append(fmt.Sprintf("%08d", 4*rng.Intn(keys)))
		}
	}
	for _, c := range []*StringColumn{sorted, random} {
		c.Merge(dict.FCInline)
	}
	for _, table := range []string{"rle", "packed"} {
		_, vec, _ := s.Table(table).Str("fk").MainParts()
		if kind := fmt.Sprintf("%T", vec); !strings.Contains(strings.ToLower(kind), table) {
			b.Fatalf("%s: the fk column packed as %s", table, kind)
		}
		for _, op := range []string{"Join", "Codes"} {
			b.Run(op+"/"+table, func(b *testing.B) {
				run := func() {
					view := s.View()
					if op == "Join" {
						view.Table(table).Join("fk", view.Table("k"), "key")
					} else {
						view.Table(table).Codes("fk")
					}
					view.Release()
				}
				run() // the join map is cached from here on
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
	}
}
