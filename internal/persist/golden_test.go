package persist

// Cross-version recovery compatibility. testdata/golden-store-v1 is a frozen
// pre-registry store directory: manifest version 1 (single-byte format
// field), legacy ddlStr WAL records, and serialization-v2 dictionary blobs
// inside the part files. It was produced by crashing a store that had
// checkpointed 13 rows into each of 18 string columns (one per built-in
// format, column cNN using format NN) and then appended 2 more rows to each,
// so recovery exercises the manifest, the part files and WAL replay in their
// old encodings. Never regenerate the fixture — its value is that current
// code did not write it.

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"strdict/internal/dict"
)

// copyGoldenStore clones the named frozen fixture into a temp dir so
// recovery's side effects (WAL continuation, new manifests) cannot touch it.
func copyGoldenStore(t *testing.T, name string) string {
	t.Helper()
	src := filepath.Join("testdata", name)
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("golden store fixture: %v", err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestGoldenStoreV1Recovers(t *testing.T) {
	wantRows := []string{
		"air", "airline", "airplane", "airport", "delta", "deluxe",
		"value-1", "value-2", "zebra", "zulu", "MOD4", "SHIP", "RAIL",
		"tail-row-1", "tail-row-2",
	}
	const ckptRows = 13 // rows covered by the v1 manifest; the rest replay

	dir := copyGoldenStore(t, "golden-store-v1")
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open golden store: %v", err)
	}
	defer s.Close()

	info := s.Recovery()
	if !info.ManifestLoaded || info.ManifestFallbacks != 0 {
		t.Fatalf("manifest not cleanly loaded: %+v", info)
	}
	if info.LostRows != 0 || len(info.Quarantined) != 0 {
		t.Fatalf("golden store lost data: %+v", info)
	}
	if want := uint64(ckptRows * dict.NumBuiltinFormats); info.CheckpointRows != want {
		t.Errorf("CheckpointRows = %d, want %d", info.CheckpointRows, want)
	}
	if want := uint64((len(wantRows) - ckptRows) * dict.NumBuiltinFormats); info.ReplayedRows != want {
		t.Errorf("ReplayedRows = %d, want %d", info.ReplayedRows, want)
	}

	tb := s.Table("t")
	if tb == nil {
		t.Fatal("table t missing after recovery")
	}
	cols := tb.StringColumns()
	if len(cols) != dict.NumBuiltinFormats {
		t.Fatalf("recovered %d string columns, want %d", len(cols), dict.NumBuiltinFormats)
	}
	for i, f := range dict.AllFormats()[:dict.NumBuiltinFormats] {
		name := "t." + colName(i)
		c := tb.Str(colName(i))
		if c == nil {
			t.Errorf("column %s missing", name)
			continue
		}
		if c.Format() != f {
			t.Errorf("%s: format = %v, want %v (wire ID must survive the v1 manifest)", name, c.Format(), f)
		}
		if c.Len() != len(wantRows) {
			t.Errorf("%s: %d rows, want %d", name, c.Len(), len(wantRows))
			continue
		}
		for r, want := range wantRows {
			if got := c.Get(r); got != want {
				t.Errorf("%s: row %d = %q, want %q", name, r, got, want)
				break
			}
		}
	}

	// A checkpoint after recovery rewrites everything in the current
	// encodings; reopening must serve the same rows.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after upgrade checkpoint: %v", err)
	}
	defer s2.Close()
	tb2 := s2.Table("t")
	for i, f := range dict.AllFormats()[:dict.NumBuiltinFormats] {
		c := tb2.Str(colName(i))
		if c == nil || c.Len() != len(wantRows) || c.Format() != f {
			t.Fatalf("column %s did not survive the upgrade round-trip", colName(i))
		}
		for r, want := range wantRows {
			if got := c.Get(r); got != want {
				t.Errorf("upgraded %s: row %d = %q, want %q", colName(i), r, got, want)
				break
			}
		}
	}
}

func colName(i int) string {
	return "c" + string([]byte{'0' + byte(i/10), '0' + byte(i%10)})
}

// testdata/golden-store-v2 is a frozen store written by the pre-incremental
// code: manifest version 2 (no walSeq field) whose newest manifest already
// mixes a fresh part with three re-referenced older ones. History: 10 rows
// into each of c0 (array), c1 (fc block), i, f; c0 merged (part + manifest);
// store checkpoint (numeric parts + manifest); 5 more rows; c1 merged
// (fresh part + manifest re-referencing c0/i/f's old parts); 3 more rows
// WAL-only; synced and crashed. Never regenerate it — its value is that
// current code did not write it.
func TestGoldenStoreV2Recovers(t *testing.T) {
	dir := copyGoldenStore(t, "golden-store-v2")

	const nRows = 18
	verify := func(s *Store, ctx string) {
		t.Helper()
		tb := s.Table("t")
		c0, c1 := tb.Str("c0"), tb.Str("c1")
		if c0.Format() != dict.Array || c1.Format() != dict.FCBlock {
			t.Fatalf("%s: formats = %v/%v, want array/fc block", ctx, c0.Format(), c1.Format())
		}
		if c0.Len() != nRows || c1.Len() != nRows {
			t.Fatalf("%s: string rows = %d/%d, want %d", ctx, c0.Len(), c1.Len(), nRows)
		}
		ic, fc := tb.Int("i"), tb.Float("f")
		if ic.Len() != nRows || fc.Len() != nRows {
			t.Fatalf("%s: numeric rows = %d/%d, want %d", ctx, ic.Len(), fc.Len(), nRows)
		}
		for i := 0; i < nRows; i++ {
			if got, want := c0.Get(i), "alpha-0"+string(rune('0'+i%4)); got != want {
				t.Fatalf("%s: c0[%d] = %q, want %q", ctx, i, got, want)
			}
			if got, want := c1.Get(i), "bravo-0"+string(rune('0'+i%3)); got != want {
				t.Fatalf("%s: c1[%d] = %q, want %q", ctx, i, got, want)
			}
			if ic.Get(i) != int64(i*7) {
				t.Fatalf("%s: i[%d] = %d, want %d", ctx, i, ic.Get(i), i*7)
			}
			if fc.Get(i) != float64(i)/8 {
				t.Fatalf("%s: f[%d] = %v", ctx, i, fc.Get(i))
			}
		}
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open golden v2 store: %v", err)
	}
	info := s.Recovery()
	if !info.ManifestLoaded || info.ManifestFallbacks != 0 {
		t.Fatalf("manifest not cleanly loaded: %+v", info)
	}
	// The loaded (newest) manifest covers c0@10, c1@15, i@10, f@10.
	if info.CheckpointRows != 45 {
		t.Errorf("CheckpointRows = %d, want 45", info.CheckpointRows)
	}
	if info.ReplayedRows != 27 || info.LostRows != 0 {
		t.Errorf("ReplayedRows/LostRows = %d/%d, want 27/0", info.ReplayedRows, info.LostRows)
	}
	verify(s, "v2 recovery")

	// A v3 checkpoint over the v2 store (re-referencing its untouched v2
	// parts) must round-trip.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after v2 recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after v3 checkpoint: %v", err)
	}
	defer s2.Close()
	verify(s2, "v3 round-trip")
}

// testdata/golden-store-concat is a frozen store whose one part file holds
// a concat-tagged code vector, the layout identity partial folds wrote
// before they re-packed the main vector: 40 rows of legacyConcatRow into
// t.s (fc block), Merge, 15 more rows of values already in the dictionary,
// MergePartial(1) (which appended those 15 codes as a second vector part),
// Checkpoint and Close. Never regenerate it — nothing writes that layout
// any more, so its value is that current code did not write it.
func TestGoldenStoreConcatRecovers(t *testing.T) {
	dir := copyGoldenStore(t, "golden-store-concat")

	// The part still holds the legacy layout: header (14 bytes), dictionary
	// length and bytes, then the vector's version byte and its tag, 4 for
	// a concatenation.
	b, err := os.ReadFile(filepath.Join(dir, "p00000001.part"))
	if err != nil {
		t.Fatal(err)
	}
	_, _, body, err := decPart(b)
	if err != nil {
		t.Fatal(err)
	}
	if dl := binary.LittleEndian.Uint32(body); body[4+dl+1] != 4 {
		t.Fatalf("fixture part's vector tag = %d, want 4 (concat)", body[4+dl+1])
	}

	const nRows = 55
	verify := func(s *Store, ctx string, nRows int) {
		t.Helper()
		c := s.Table("t").Str("s")
		if c.Format() != dict.FCBlock || c.Len() != nRows || c.DeltaRows() != 0 {
			t.Fatalf("%s: format %v, %d rows (%d delta), want fc block, %d rows, all main",
				ctx, c.Format(), c.Len(), c.DeltaRows(), nRows)
		}
		for i := 0; i < nRows; i++ {
			if got, want := c.Get(i), legacyConcatRow(i); got != want {
				t.Fatalf("%s: row %d = %q, want %q", ctx, i, got, want)
			}
		}
	}

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open concat store: %v", err)
	}
	info := s.Recovery()
	if !info.ManifestLoaded || info.ManifestFallbacks != 0 || info.LostRows != 0 || len(info.Quarantined) != 0 {
		t.Fatalf("concat store not cleanly recovered: %+v", info)
	}
	if info.CheckpointRows != nRows {
		t.Errorf("CheckpointRows = %d, want %d", info.CheckpointRows, nRows)
	}
	verify(s, "recovery", nRows)

	// One more row and a merge rewrite the part in today's layout;
	// reopening must serve the same rows.
	c := s.Table("t").Str("s")
	c.Append(legacyConcatRow(nRows))
	c.Merge(dict.FCBlock)
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	defer s2.Close()
	verify(s2, "round-trip", nRows+1)
}

// legacyConcatRow is row i of golden-store-concat.
func legacyConcatRow(i int) string { return fmt.Sprintf("gamma-%02d", (i*5)%9) }
