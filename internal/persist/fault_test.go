package persist

// Store-level fault injection through the FS seam: transient faults are
// retried and absorbed, permanent faults degrade the store to read-only
// with the health hook fired, and either way the in-memory contents stay
// intact and recovery never regresses below the durable prefix.

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"strdict/internal/dict"
)

// healthLog collects OnHealth events for assertions.
type healthLog struct {
	mu     sync.Mutex
	events []HealthEvent
}

func (l *healthLog) hook() func(HealthEvent) {
	return func(ev HealthEvent) {
		l.mu.Lock()
		l.events = append(l.events, ev)
		l.mu.Unlock()
	}
}

func (l *healthLog) states() []HealthState {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]HealthState, len(l.events))
	for i, ev := range l.events {
		out[i] = ev.State
	}
	return out
}

// faultOpts opens a store with sync-every appends, a FaultFS, a health log
// and fast retries.
func faultOpts(ffs *FaultFS, log *healthLog, retryLimit int) Options {
	return Options{
		FsyncInterval: -1,
		FS:            ffs,
		OnHealth:      log.hook(),
		RetryLimit:    retryLimit,
		RetryBackoff:  time.Microsecond,
	}
}

func isWALPath(path string) bool { return strings.HasSuffix(path, ".log") }

// TestStoreTransientFaultRetried: a burst of fsync failures shorter than
// the retry budget degrades and then recovers the store — appends keep
// succeeding, nothing is sticky, and the rows are durable across a crash.
func TestStoreTransientFaultRetried(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	log := &healthLog{}
	s, err := Open(dir, faultOpts(ffs, log, 3))
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 50)

	ffs.FailNext(OpSync, 2, errInjected, isWALPath)
	tb := s.Table("t")
	base := len(rows)
	for i := 0; i < 10; i++ {
		tb.Str("s").Append("post-fault")
		tb.Int("i").Append(int64((base + i) * 3))
		tb.Float("f").Append(float64(base+i) / 4)
		rows = append(rows, "post-fault")
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("sync after transient fault: %v", err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("transient fault turned sticky: %v", err)
	}
	if got := s.Health(); got != StateHealthy {
		t.Fatalf("health = %v, want healthy", got)
	}
	if got := s.DroppedRows(); got != 0 {
		t.Fatalf("dropped rows = %d, want 0", got)
	}
	s.Crash()

	states := log.states()
	if len(states) < 2 || states[0] != StateDegraded || states[len(states)-1] != StateHealthy {
		t.Fatalf("health transitions = %v, want degraded then healthy", states)
	}

	s2 := openSync(t, dir)
	defer s2.Close()
	verifyStore(t, s2, rows)
}

// TestStorePermanentFaultReadOnly: once a fault outlives the retry budget
// the store degrades to read-only — the hook fires, Err is sticky, refused
// appends are counted, reads still serve the full in-memory contents, and
// recovery comes back with exactly the durable prefix.
func TestStorePermanentFaultReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	log := &healthLog{}
	s, err := Open(dir, faultOpts(ffs, log, 2))
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 50)
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	// Refuse writes and syncs: nothing lands on disk past the durable prefix.
	ffs.FailAll(OpWrite, errInjected, isWALPath)
	ffs.FailAll(OpSync, errInjected, isWALPath)
	tb := s.Table("t")
	sc := tb.Str("s")
	for i := 0; i < 5; i++ {
		sc.Append("lost") // accepted in memory, refused by the dead WAL
		rows = append(rows, "lost")
	}
	if err := s.Err(); !errors.Is(err, errInjected) {
		t.Fatalf("Err = %v, want injected fault", err)
	}
	if got := s.Health(); got != StateReadOnly {
		t.Fatalf("health = %v, want read-only", got)
	}
	// The first failing append burned the retry budget and went sticky; the
	// remaining four were refused outright.
	if got := s.DroppedRows(); got != 4 {
		t.Fatalf("dropped rows = %d, want 4", got)
	}
	// Reads keep serving the in-memory store, dropped rows included.
	if sc.Len() != len(rows) {
		t.Fatalf("in-memory rows = %d, want %d", sc.Len(), len(rows))
	}
	for i, want := range rows {
		if got := sc.Get(i); got != want {
			t.Fatalf("row %d = %q, want %q", i, got, want)
		}
	}
	s.Crash()

	states := log.states()
	if len(states) == 0 || states[len(states)-1] != StateReadOnly {
		t.Fatalf("health transitions = %v, want ... read-only", states)
	}

	// Recovery restores the durable prefix: everything before the fault.
	ffs.Clear()
	s2 := openSync(t, dir)
	defer s2.Close()
	verifyStore(t, s2, rows[:50])
}

// TestStoreCheckpointFaultReadOnly: a permanently failing checkpoint write
// (merge-time part file) turns the journal sticky and read-only, but WAL
// replay still recovers every appended row.
func TestStoreCheckpointFaultReadOnly(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	log := &healthLog{}
	s, err := Open(dir, faultOpts(ffs, log, 2))
	if err != nil {
		t.Fatal(err)
	}
	rows := fillStore(t, s, 50)
	ffs.FailAll(OpCreate, errInjected, func(p string) bool { return strings.HasSuffix(p, ".tmp") })

	sc := s.Table("t").Str("s")
	sc.Merge(sc.Format()) // merge triggers the failing checkpoint
	if err := s.Err(); !errors.Is(err, errInjected) {
		t.Fatalf("Err = %v, want injected fault", err)
	}
	if got := s.Health(); got != StateReadOnly {
		t.Fatalf("health = %v, want read-only", got)
	}
	s.Crash()

	ffs.Clear()
	s2 := openSync(t, dir)
	defer s2.Close()
	verifyStore(t, s2, rows)
}

// TestHealthHookNotUnderLocks: the OnHealth hook may call back into the
// store (Err, Health, DroppedRows) without deadlocking, because events are
// delivered by a dedicated goroutine outside every persist lock.
func TestHealthHookNotUnderLocks(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	fired := make(chan struct{})
	var s *Store
	var once sync.Once
	opts := Options{
		FsyncInterval: -1,
		FS:            ffs,
		RetryLimit:    -1,
		OnHealth: func(ev HealthEvent) {
			s.Err()
			s.Health()
			s.DroppedRows()
			once.Do(func() { close(fired) })
		},
	}
	var err error
	s, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	fillStore(t, s, 5)
	ffs.FailAll(OpSync, errInjected, isWALPath)
	s.Table("t").Str("s").Append("x")
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("health hook never fired")
	}
	ffs.Clear()
	s.Close()
}

// isManifestPath matches manifest files (but not their quarantined copies).
func isManifestPath(path string) bool {
	name := filepath.Base(path)
	_, ok := parseManifestSeq(name)
	return ok
}

func isPartPath(path string) bool {
	_, ok := parsePartSeq(filepath.Base(path))
	return ok
}

// buildFaultRecoveryDir makes a directory with two manifests and WAL tail
// rows, then returns it plus the expected string rows.
func buildFaultRecoveryDir(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	s := openSync(t, dir)
	rows := fillStore(t, s, 20)
	s.Table("t").Str("s").Merge(dict.FCBlock)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tb := s.Table("t")
	for i := 20; i < 26; i++ {
		v := fmt.Sprintf("value-%03d", i%7)
		tb.Str("s").Append(v)
		rows = append(rows, v)
		tb.Int("i").Append(int64(i * 3))
		tb.Float("f").Append(float64(i) / 4)
	}
	s.Close()
	return dir, rows
}

// TestOpenManifestReadFaultFallsBack: an I/O fault on the newest manifest
// during Open behaves like corruption — recovery falls back to the previous
// manifest and reconstructs every row from it plus the WAL.
func TestOpenManifestReadFaultFallsBack(t *testing.T) {
	dir, rows := buildFaultRecoveryDir(t)
	ffs := &FaultFS{}
	log := &healthLog{}
	ffs.FailNext(OpReadFile, 1, errInjected, isManifestPath)
	s, err := Open(dir, faultOpts(ffs, log, 0))
	if err != nil {
		t.Fatalf("open with manifest read fault: %v", err)
	}
	defer s.Close()
	if s.Recovery().ManifestFallbacks == 0 {
		t.Fatal("expected a manifest fallback")
	}
	verifyStore(t, s, rows)
}

// TestOpenPartReadFaultFallsBack: a faulted part read rejects that manifest
// and recovery continues manifest-by-manifest instead of poisoning Open.
func TestOpenPartReadFaultFallsBack(t *testing.T) {
	dir, rows := buildFaultRecoveryDir(t)
	ffs := &FaultFS{}
	log := &healthLog{}
	ffs.FailNext(OpReadFile, 1, errInjected, isPartPath)
	s, err := Open(dir, faultOpts(ffs, log, 0))
	if err != nil {
		t.Fatalf("open with part read fault: %v", err)
	}
	defer s.Close()
	if s.Recovery().ManifestFallbacks == 0 {
		t.Fatal("expected a manifest fallback")
	}
	verifyStore(t, s, rows)
}

// TestOpenEveryReadFaultFallsBackOrFails sweeps a single injected ReadFile
// fault over every read Open performs: each position must either fall back
// losslessly (manifest/part reads) or fail Open outright (WAL reads) —
// never open a store with silently missing rows.
func TestOpenEveryReadFaultFallsBackOrFails(t *testing.T) {
	dir, rows := buildFaultRecoveryDir(t)
	// Count the reads of a clean Open.
	probe := &FaultFS{}
	s, err := Open(dir, Options{FsyncInterval: -1, FS: probe})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	total := int(probe.OpCount(OpReadFile))
	if total < 3 {
		t.Fatalf("probe counted %d reads, want several", total)
	}
	for k := 0; k < total; k++ {
		ffs := &FaultFS{}
		skip := k
		var faulted string
		ffs.SetHook(func(op Op, path string) error {
			if op != OpReadFile {
				return nil
			}
			if skip == 0 {
				skip--
				faulted = filepath.Base(path)
				return errInjected
			}
			skip--
			return nil
		})
		s, err := Open(dir, Options{FsyncInterval: -1, FS: ffs, RetryLimit: -1})
		if err != nil {
			// Acceptable only for a WAL read: recovery must not replay
			// around an unreadable segment.
			if !errors.Is(err, errInjected) || !isWALPath(faulted) {
				t.Fatalf("read %d (%s): open failed: %v", k, faulted, err)
			}
			continue
		}
		verifyStore(t, s, rows)
		s.Close()
	}
}

// TestOpenWALReadFaultFailsThenCleanReopen: a WAL segment read fault makes
// Open fail with the injected error; clearing the fault lets the same
// directory open losslessly — the failed Open mutated nothing.
func TestOpenWALReadFaultFailsThenCleanReopen(t *testing.T) {
	dir, rows := buildFaultRecoveryDir(t)
	ffs := &FaultFS{}
	ffs.FailAll(OpReadFile, errInjected, isWALPath)
	if _, err := Open(dir, Options{FsyncInterval: -1, FS: ffs, RetryLimit: -1}); !errors.Is(err, errInjected) {
		t.Fatalf("open with WAL read fault: err = %v, want injected", err)
	}
	ffs.Clear()
	s, err := Open(dir, Options{FsyncInterval: -1, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	verifyStore(t, s, rows)
}

// TestOpenReadDirFaultFails: if the directory itself cannot be listed, Open
// reports it rather than treating the store as fresh (which would shadow
// every existing row).
func TestOpenReadDirFaultFails(t *testing.T) {
	dir, _ := buildFaultRecoveryDir(t)
	ffs := &FaultFS{}
	ffs.FailNext(OpReadDir, 1, errInjected, nil)
	if _, err := Open(dir, Options{FsyncInterval: -1, FS: ffs}); !errors.Is(err, errInjected) {
		t.Fatalf("open with readdir fault: err = %v, want injected", err)
	}
}

// TestOpenSyncsCreatedDirs: Open on a path whose last levels do not exist
// creates them and fsyncs the parent of each, so a power cut cannot lose
// the store directory's name and with it every WAL segment inside; a
// directory that already exists costs no parent fsync.
func TestOpenSyncsCreatedDirs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b")
	var parentSyncs []string
	ffs := &FaultFS{}
	ffs.SetHook(func(op Op, path string) error {
		if op == OpSyncDir && path != dir {
			parentSyncs = append(parentSyncs, path)
		}
		return nil
	})
	for _, want := range [][]string{{root, filepath.Join(root, "a")}, nil} {
		parentSyncs = nil
		s, err := Open(dir, Options{FS: ffs})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		slices.Sort(parentSyncs)
		if !slices.Equal(parentSyncs, want) {
			t.Fatalf("Open fsynced directories %q, want %q", parentSyncs, want)
		}
	}
}
