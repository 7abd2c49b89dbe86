package persist

// Incremental-checkpoint tests: a checkpoint writes part files only for
// dirty columns and re-references clean columns' existing parts in the new
// manifest; GC collects parts by manifest reachability and quarantines
// orphans; the WAL truncation floor is the per-column minimum across both
// retained manifests, so falling back to the older manifest never meets a
// truncated tail.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"strdict/internal/dict"
)

// fillWide populates one table with 16 int columns of n rows each.
func fillWide(t *testing.T, s *Store, n int) {
	t.Helper()
	tb, ok := s.Tables["w"]
	if !ok {
		tb = s.AddTable("w")
		for c := 0; c < 16; c++ {
			tb.AddInt64(fmt.Sprintf("c%02d", c))
		}
	}
	for c := 0; c < 16; c++ {
		ic := tb.Int(fmt.Sprintf("c%02d", c))
		base := ic.Len()
		for i := 0; i < n; i++ {
			ic.Append(int64(c*1000 + base + i))
		}
	}
}

func verifyWide(t *testing.T, s *Store, n int, ctx string) {
	t.Helper()
	tb := s.Table("w")
	for c := 0; c < 16; c++ {
		ic := tb.Int(fmt.Sprintf("c%02d", c))
		if ic.Len() != n {
			t.Fatalf("%s: col %d rows = %d, want %d", ctx, c, ic.Len(), n)
		}
		for i := 0; i < n; i++ {
			if got := ic.Get(i); got != int64(c*1000+i) {
				t.Fatalf("%s: col %d row %d = %d, want %d", ctx, c, i, got, c*1000+i)
			}
		}
	}
}

// newestManifestCols decodes the newest on-disk manifest's entries.
func newestManifestCols(t *testing.T, dir string) (uint64, []manifestCol) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := uint64(0)
	found := false
	for _, e := range ents {
		if seq, ok := parseManifestSeq(e.Name()); ok && (!found || seq > newest) {
			newest, found = seq, true
		}
	}
	if !found {
		t.Fatal("no manifest on disk")
	}
	b, err := os.ReadFile(manifestPath(dir, newest))
	if err != nil {
		t.Fatal(err)
	}
	_, _, cols, err := decManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	return newest, cols
}

// TestIncrementalCheckpointWritesOnlyDirtyColumns: after a full checkpoint,
// dirtying 1 of 16 columns and checkpointing again writes exactly one part;
// the new manifest re-references the other 15 columns' existing parts, and
// recovery from it is bit-identical.
func TestIncrementalCheckpointWritesOnlyDirtyColumns(t *testing.T) {
	dir := t.TempDir()
	s := openSync(t, dir)
	fillWide(t, s, 10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	full := s.LastCheckpoint()
	if full.PartsWritten != 16 || full.PartsReused != 0 {
		t.Fatalf("full checkpoint stats = %+v, want 16 written / 0 reused", full)
	}
	_, before := newestManifestCols(t, dir)
	fileOf := make(map[string]string)
	for _, c := range before {
		fileOf[c.table+"."+c.column] = c.file
	}

	// Dirty exactly one column.
	s.Table("w").Int("c07").Append(int64(7*1000 + 10))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	inc := s.LastCheckpoint()
	if inc.PartsWritten != 1 || inc.PartsReused != 15 {
		t.Fatalf("incremental checkpoint stats = %+v, want 1 written / 15 reused", inc)
	}
	// The checkpoint byte floor: one dirty column of sixteen writes at least
	// 4x fewer part bytes than the full rewrite (about 16x measured).
	if inc.PartBytes == 0 || 4*inc.PartBytes > full.PartBytes {
		t.Fatalf("incremental part bytes = %d, want in (0, %d/4]", inc.PartBytes, full.PartBytes)
	}
	_, after := newestManifestCols(t, dir)
	changed := 0
	for _, c := range after {
		name := c.table + "." + c.column
		if c.file != fileOf[name] {
			changed++
			if name != "w.c07" {
				t.Fatalf("clean column %s got a new part %s (had %s)", name, c.file, fileOf[name])
			}
		}
	}
	if changed != 1 {
		t.Fatalf("%d manifest entries changed files, want 1", changed)
	}
	s.Close()

	// The mixed manifest (15 reused parts + 1 fresh) recovers bit-identically.
	s2 := openSync(t, dir)
	defer s2.Close()
	tb := s2.Table("w")
	for c := 0; c < 16; c++ {
		want := 10
		if c == 7 {
			want = 11
		}
		ic := tb.Int(fmt.Sprintf("c%02d", c))
		if ic.Len() != want {
			t.Fatalf("col %d rows = %d, want %d", c, ic.Len(), want)
		}
		for i := 0; i < want; i++ {
			if ic.Get(i) != int64(c*1000+i) {
				t.Fatalf("col %d row %d = %d", c, i, ic.Get(i))
			}
		}
	}
}

// TestCleanCheckpointWritesNoParts: a checkpoint with nothing dirty writes
// zero part files — only a manifest.
func TestCleanCheckpointWritesNoParts(t *testing.T) {
	dir := t.TempDir()
	s := openSync(t, dir)
	defer s.Close()
	fillWide(t, s, 5)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.LastCheckpoint()
	if st.PartsWritten != 0 || st.PartsReused != 16 || st.PartBytes != 0 {
		t.Fatalf("clean checkpoint stats = %+v, want 0 written / 16 reused", st)
	}
	if st.ManifestBytes == 0 {
		t.Fatalf("manifest bytes = 0, want > 0")
	}
}

// TestStringMergeDirtiesOnlyThatColumn: with merge-time checkpoints
// disabled, merging one string column marks only it dirty; the next
// store-wide checkpoint rewrites it (plus never-persisted columns) and
// reuses the rest.
func TestStringMergeDirtiesOnlyThatColumn(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FsyncInterval: -1, DisableCheckpointOnMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb := s.AddTable("t")
	a := tb.AddString("a", dict.Array)
	b := tb.AddString("b", dict.Array)
	for i := 0; i < 12; i++ {
		a.Append(fmt.Sprintf("a-%d", i%3))
		b.Append(fmt.Sprintf("b-%d", i%4))
	}
	a.Merge(dict.Array)
	b.Merge(dict.FCBlock)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.LastCheckpoint(); st.PartsWritten != 2 {
		t.Fatalf("first checkpoint stats = %+v, want 2 written", st)
	}

	// Merge only a; b stays clean.
	for i := 0; i < 4; i++ {
		a.Append(fmt.Sprintf("a-%d", i%3))
	}
	a.Merge(dict.Array)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.LastCheckpoint(); st.PartsWritten != 1 || st.PartsReused != 1 {
		t.Fatalf("merge-dirty checkpoint stats = %+v, want 1 written / 1 reused", st)
	}
}

// TestRecoveredStoreTruncatesAfterOneCheckpoint: the truncation floor and
// ceiling survive recovery (seeded from the loaded v3 manifest's covered
// rows and walSeq), so the first post-recovery checkpoint already deletes
// the segments that manifest covers. Before the fix the previous-cover
// state reset to zero at recovery and truncation resumed only after two
// fresh checkpoints.
func TestRecoveredStoreTruncatesAfterOneCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{FsyncInterval: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	fillWide(t, s, 40) // 640 rows → several 512B segments
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// One manifest on disk covering rows the WAL still holds (a single
	// checkpoint deletes nothing: no previous cover yet). More rows after
	// it, then crash.
	fillWide(t, s, 10)
	s.Crash()

	s2, err := Open(dir, Options{FsyncInterval: -1, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	segsBefore, _ := listWALSegments(OS, dir)
	if len(segsBefore) < 3 {
		t.Fatalf("expected several WAL segments after recovery, got %d", len(segsBefore))
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segsAfter, _ := listWALSegments(OS, dir)
	if len(segsAfter) >= len(segsBefore) {
		t.Fatalf("single post-recovery checkpoint truncated nothing: %d -> %d segments",
			len(segsBefore), len(segsAfter))
	}
	s2.Close()

	// And the directory still recovers everything.
	s3 := openSync(t, dir)
	defer s3.Close()
	verifyWide(t, s3, 50, "after truncating recovery")
}

// TestFallbackAfterIncrementalCheckpointsLossless: build a store whose
// newest manifest mixes reused and fresh parts, corrupt that manifest, and
// recover — the fallback manifest plus the (min-floor-truncated) WAL must
// reconstruct every row.
func TestFallbackAfterIncrementalCheckpointsLossless(t *testing.T) {
	master := t.TempDir()
	s, err := Open(master, Options{FsyncInterval: -1, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	fillWide(t, s, 8)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fillWide(t, s, 2) // rows 8..9 everywhere
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Dirty one column only: the newest manifest now reuses 15 parts.
	s.Table("w").Int("c03").Append(int64(3*1000 + 10))
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.LastCheckpoint(); st.PartsReused == 0 {
		t.Fatalf("newest manifest reuses nothing: %+v", st)
	}
	s.Close()

	newest, _ := newestManifestCols(t, master)
	base := filepath.Base(manifestPath(master, newest))
	full, err := os.ReadFile(manifestPath(master, newest))
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(full); off += 5 {
		dir := t.TempDir()
		copyDir(t, master, dir)
		mut := append([]byte(nil), full...)
		mut[off] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir, base), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s1, err := Open(dir, syncOpts)
		if err != nil {
			t.Fatalf("off %d: open: %v", off, err)
		}
		tb := s1.Table("w")
		for c := 0; c < 16; c++ {
			want := 10
			if c == 3 {
				want = 11
			}
			ic := tb.Int(fmt.Sprintf("c%02d", c))
			if ic.Len() != want {
				t.Fatalf("off %d: col %d rows = %d, want %d (fallbacks=%d)",
					off, c, ic.Len(), want, s1.Recovery().ManifestFallbacks)
			}
			for i := 0; i < want; i++ {
				if ic.Get(i) != int64(c*1000+i) {
					t.Fatalf("off %d: col %d row %d = %d", off, c, i, ic.Get(i))
				}
			}
		}
		s1.Close()
	}
}

// TestGCQuarantinesOrphanPart: a part file no manifest references — the
// residue of a crash between part write and manifest commit — is renamed to
// a .orphan side file by the next checkpoint's GC, not silently deleted and
// not leaked under its live name.
func TestGCQuarantinesOrphanPart(t *testing.T) {
	dir := t.TempDir()
	s := openSync(t, dir)
	fillStore(t, s, 10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Plant an orphan with a sequence far beyond the referenced parts, as a
	// crashed checkpoint would leave it.
	orphan := filepath.Join(dir, fmt.Sprintf("p%08d.part", 90))
	part, err := os.ReadFile(filepath.Join(dir, "p00000000.part"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphan, part, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openSync(t, dir)
	s2.Table("t").Int("i").Append(30)
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Checkpoint(); err != nil { // second cycle: GC has 2 manifests either way
		t.Fatal(err)
	}
	s2.Close()

	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan part still present under live name: %v", err)
	}
	if _, err := os.Stat(orphan + ".orphan"); err != nil {
		t.Fatalf("orphan part not quarantined: %v", err)
	}
}

// TestCrashBetweenPartWriteAndManifestCommit drives the real failure: the
// part file lands, the manifest write faults, the process "crashes".
// Recovery must serve the pre-crash state, and the next GC must quarantine
// the committed-but-unreferenced part.
func TestCrashBetweenPartWriteAndManifestCommit(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	log := &healthLog{}
	s, err := Open(dir, faultOpts(ffs, log, 0))
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 15)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Fail manifest writes only: the next checkpoint writes its part files,
	// then dies at the commit record.
	ffs.FailAll(OpCreate, errInjected, func(p string) bool {
		return strings.Contains(filepath.Base(p), "manifest-")
	})
	s.Table("t").Int("i").Append(45)
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded despite manifest fault")
	}
	s.Crash()
	ffs.Clear()

	// The orphan is on disk under a live part name.
	ents, _ := os.ReadDir(dir)
	var partNames []string
	for _, e := range ents {
		if _, ok := parsePartSeq(e.Name()); ok {
			partNames = append(partNames, e.Name())
		}
	}
	_, cols := newestManifestCols(t, dir)
	referenced := make(map[string]bool)
	for _, c := range cols {
		referenced[c.file] = true
	}
	var orphans []string
	for _, name := range partNames {
		if !referenced[name] {
			orphans = append(orphans, name)
		}
	}
	if len(orphans) == 0 {
		t.Fatal("fault left no orphan part; test lost its subject")
	}

	s2 := openSync(t, dir)
	sc := s2.Table("t").Str("s")
	if sc.Len() != len(rows) {
		t.Fatalf("string rows = %d, want %d", sc.Len(), len(rows))
	}
	for i, want := range rows {
		if got := sc.Get(i); got != want {
			t.Fatalf("row %d = %q, want %q", i, got, want)
		}
	}
	// The WAL (not the failed checkpoint) carries the post-checkpoint row.
	if got := s2.Table("t").Int("i").Len(); got != 16 {
		t.Fatalf("int rows = %d, want 16", got)
	}
	if got := s2.Table("t").Int("i").Get(15); got != 45 {
		t.Fatalf("int row 15 = %d, want 45", got)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	for _, name := range orphans {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s still present under live name", name)
		}
		if _, err := os.Stat(filepath.Join(dir, name+".orphan")); err != nil {
			t.Fatalf("orphan %s not quarantined: %v", name, err)
		}
	}
}

// TestGCQuarantinesCorruptManifestAndRetainsReadable: with three manifests
// on disk of which the newest is corrupt, GC must not count the corrupt one
// toward the two retained — it gets quarantined, the two readable ones
// survive, and so do every part they reference.
func TestGCQuarantinesCorruptManifestAndRetainsReadable(t *testing.T) {
	dir := t.TempDir()
	s := openSync(t, dir)
	fillStore(t, s, 10)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Table("t").Int("i").Append(30)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Corrupt the newest manifest in place.
	newest, _ := newestManifestCols(t, dir)
	mpath := manifestPath(dir, newest)
	b, _ := os.ReadFile(mpath)
	b[len(b)-1] ^= 0xff
	os.WriteFile(mpath, b, 0o644)

	// Reopen (falls back to the older manifest) and checkpoint: GC runs.
	s2 := openSync(t, dir)
	if s2.Recovery().ManifestFallbacks == 0 {
		t.Fatal("expected a manifest fallback")
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s2.Close()

	if _, err := os.Stat(mpath); !os.IsNotExist(err) {
		t.Fatalf("corrupt manifest still on disk under live name")
	}
	if _, err := os.Stat(mpath + ".quarantine"); err != nil {
		t.Fatalf("corrupt manifest not quarantined: %v", err)
	}
	ents, _ := os.ReadDir(dir)
	var manifests []uint64
	referenced := make(map[string]bool)
	for _, e := range ents {
		if seq, ok := parseManifestSeq(e.Name()); ok {
			manifests = append(manifests, seq)
			mb, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			_, _, cols, err := decManifest(mb)
			if err != nil {
				t.Fatalf("retained manifest %d unreadable: %v", seq, err)
			}
			for _, c := range cols {
				if c.file != "" {
					referenced[c.file] = true
				}
			}
		}
	}
	if len(manifests) != 2 {
		t.Fatalf("readable manifests on disk = %d, want 2", len(manifests))
	}
	for file := range referenced {
		if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
			t.Fatalf("referenced part %s missing: %v", file, err)
		}
	}

	// And the store still opens losslessly.
	s3 := openSync(t, dir)
	defer s3.Close()
	if got := s3.Table("t").Int("i").Len(); got != 11 {
		t.Fatalf("rows after GC round = %d, want 11", got)
	}
}
