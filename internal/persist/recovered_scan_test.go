package persist

import (
	"fmt"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
)

// TestRecoveredStoreKernelsMatchScalar: after checkpoint + crash + recovery,
// the vectorized scan kernels on the recovered column must agree with a
// per-row Get oracle, on the recovered main part and the replayed delta
// alike.
func TestRecoveredStoreKernelsMatchScalar(t *testing.T) {
	const rows = 14000
	dir := t.TempDir()

	s := openSync(t, dir)
	tb := s.AddTable("t")
	sc := tb.AddString("s", dict.Array)
	values := make([]string, rows)
	for i := range values {
		values[i] = fmt.Sprintf("key-%05d", i/100) // clustered: runs of 100
	}
	for _, v := range values {
		sc.Append(v)
	}
	sc.Merge(sc.Format())
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A post-checkpoint unmerged tail, so recovery has both a main part to
	// load and WAL rows to replay into the delta.
	tailPool := datagen.Generate(datagen.Names()[0], 200, 1)
	for i := 0; i < 500; i++ {
		v := tailPool[i%len(tailPool)]
		sc.Append(v)
		values = append(values, v)
	}
	s.Crash()

	s2 := openSync(t, dir)
	defer s2.Close()
	rc := s2.Table("t").Str("s")
	if rc.Len() != len(values) {
		t.Fatalf("recovered rows = %d, want %d", rc.Len(), len(values))
	}

	snap := rc.Snapshot()
	defer snap.Release()
	// The oracle reads every row through Snapshot.Get, sharing no code with
	// the scans (no code-vector predicate, no locate, no delta scan).
	vals := make([]string, snap.Len())
	for row := range vals {
		vals[row] = snap.Get(row)
	}
	getScan := func(keep func(string) bool) (rows []int) {
		for row, v := range vals {
			if keep(v) {
				rows = append(rows, row)
			}
		}
		return rows
	}
	probes := []string{
		"key-00000",                           // first cluster
		"key-00071",                           // mid cluster
		fmt.Sprintf("key-%05d", (rows-1)/100), // last main cluster
		tailPool[3],                           // delta-resident value
		"key-00071\x01never",                  // absent
	}
	for _, p := range probes {
		kern := snap.ScanEq(p, nil)
		scal := getScan(func(v string) bool { return v == p })
		if fmt.Sprint(kern) != fmt.Sprint(scal) {
			t.Fatalf("recovered ScanEq(%q): kernel %d rows, Get oracle %d rows", p, len(kern), len(scal))
		}
		if got := snap.CountEq(p); got != len(scal) {
			t.Fatalf("recovered CountEq(%q) = %d, Get oracle %d", p, got, len(scal))
		}
	}
	for _, r := range [][2]string{
		{"key-00010", "key-00020"},
		{"", "\xff"},
		{"key-00139", "key-00139"},
	} {
		kern := snap.ScanRange(r[0], r[1], nil)
		scal := getScan(func(v string) bool { return r[0] <= v && v < r[1] })
		if fmt.Sprint(kern) != fmt.Sprint(scal) {
			t.Fatalf("recovered ScanRange(%q,%q): kernel %d rows, Get oracle %d rows", r[0], r[1], len(kern), len(scal))
		}
	}
}
