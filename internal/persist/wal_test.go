package persist

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		{recSeal},
		encAppend(3, "hello"),
		encAppend(0, ""),
		encHeader(7, map[uint32]uint64{1: 10, 0: 3}),
		encDDLColumn(recDDLString, 2, 5, "lineitem", "l_shipmode"),
	}
	var buf []byte
	for _, p := range payloads {
		buf = appendFrame(buf, p)
	}
	off := 0
	for i, want := range payloads {
		got, next, err := readFrame(buf, off)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if string(got) != string(want) {
			t.Fatalf("frame %d: got %x want %x", i, got, want)
		}
		off = next
	}
	if off != len(buf) {
		t.Fatalf("trailing bytes after last frame")
	}

	// Every strict prefix of the stream ends in a torn frame.
	for cut := off - 1; cut > off-9 && cut >= 0; cut-- {
		o := 0
		var err error
		for {
			_, o, err = readFrame(buf[:cut], o)
			if err != nil {
				break
			}
		}
		if !errors.Is(err, errTorn) {
			t.Fatalf("cut %d: err = %v, want errTorn", cut, err)
		}
	}

	// A flipped byte is torn, not misread.
	bad := append([]byte(nil), buf...)
	bad[8] ^= 0x40 // the first frame's payload byte
	if _, _, err := readFrame(bad, 0); !errors.Is(err, errTorn) {
		t.Fatalf("corrupt frame: err = %v, want errTorn", err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	counts := map[uint32]uint64{9: 1, 2: 1 << 40, 5: 0}
	p := encHeader(42, counts)
	seq, got, err := decHeader(p)
	if err != nil || seq != 42 {
		t.Fatalf("decHeader: seq=%d err=%v", seq, err)
	}
	if len(got) != len(counts) {
		t.Fatalf("counts = %v", got)
	}
	for id, n := range counts {
		if got[id] != n {
			t.Fatalf("count[%d] = %d, want %d", id, got[id], n)
		}
	}
	if _, _, err := decHeader(p[:len(p)-1]); err == nil {
		t.Fatalf("short header accepted")
	}
}

func TestDDLColumnRoundTrip(t *testing.T) {
	for _, kind := range []byte{recDDLString2, recDDLInt, recDDLFloat} {
		p := encDDLColumn(kind, 17, 300, "part", "p_type")
		id, format, table, column, err := decDDLColumn(p)
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if id != 17 || table != "part" || column != "p_type" {
			t.Fatalf("kind %d: id=%d %s.%s", kind, id, table, column)
		}
		if kind == recDDLString2 && format != 300 {
			t.Fatalf("string format = %d", format)
		}
		if _, _, _, _, err := decDDLColumn(append(p, 0)); err == nil {
			t.Fatalf("trailing byte accepted")
		}
	}
}

// TestDDLColumnLegacyString decodes a hand-built pre-registry ddlStr record
// (single-byte format). Writers no longer emit it, readers must keep
// accepting it.
func TestDDLColumnLegacyString(t *testing.T) {
	p := []byte{recDDLString, 17, 0, 0, 0, 4}
	p = appendStr16(p, "part")
	p = appendStr16(p, "p_type")
	id, format, table, column, err := decDDLColumn(p)
	if err != nil {
		t.Fatal(err)
	}
	if id != 17 || format != 4 || table != "part" || column != "p_type" {
		t.Fatalf("got id=%d format=%d %s.%s", id, format, table, column)
	}
}

func TestWALRotationAndHeaders(t *testing.T) {
	dir := t.TempDir()
	w, err := newWAL(walConfig{dir: dir, segBytes: 256, fsync: -1}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := w.append(encAppend(1, "some-value-padding-padding"), true, 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listWALSegments(OS, dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments = %d (err %v), want several", len(segs), err)
	}

	// Each segment's header must carry the running count at its start, and
	// the records must chain without gaps.
	var cnt uint64
	for i, seg := range segs {
		b, err := os.ReadFile(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		if string(b[:4]) != walMagic || b[4] != walVersion {
			t.Fatalf("segment %d: bad preamble", i)
		}
		off := 5
		payload, off, err := readFrame(b, off)
		if err != nil {
			t.Fatalf("segment %d: header: %v", i, err)
		}
		seq, counts, err := decHeader(payload)
		if err != nil || seq != seg.seq {
			t.Fatalf("segment %d: header seq=%d err=%v", i, seq, err)
		}
		if counts[1] != cnt {
			t.Fatalf("segment %d: header count %d, want %d", i, counts[1], cnt)
		}
		for off < len(b) {
			payload, off, err = readFrame(b, off)
			if err != nil {
				t.Fatalf("segment %d: torn at %d: %v", i, off, err)
			}
			if payload[0] == recAppend {
				cnt++
			}
		}
	}
	if cnt != 100 {
		t.Fatalf("replayed %d appends, want 100", cnt)
	}
}

func TestWALDeleteCovered(t *testing.T) {
	dir := t.TempDir()
	w, err := newWAL(walConfig{dir: dir, segBytes: 200, fsync: -1}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		w.append(encAppend(0, "pad-pad-pad-pad-pad-pad"), true, 0)
	}
	w.mu.Lock()
	nSealed := len(w.sealed)
	var firstEnd uint64
	if nSealed > 0 {
		firstEnd = w.sealed[0].end[0]
	}
	active := w.seq
	w.mu.Unlock()
	if nSealed < 2 {
		t.Fatalf("sealed = %d, want >= 2", nSealed)
	}

	// Not covered: nothing deleted.
	w.deleteCovered(map[uint32]uint64{0: firstEnd - 1}, active)
	if got := len(w.sealed); got != nSealed {
		t.Fatalf("deleted despite cover too low: %d -> %d", nSealed, got)
	}
	// Covered but maxSeq too low: nothing deleted.
	w.deleteCovered(map[uint32]uint64{0: 1 << 32}, 0)
	if got := len(w.sealed); got != nSealed {
		t.Fatalf("deleted despite maxSeq 0")
	}
	// First segment covered.
	w.deleteCovered(map[uint32]uint64{0: firstEnd}, active)
	if got := len(w.sealed); got != nSealed-1 {
		t.Fatalf("sealed after delete = %d, want %d", got, nSealed-1)
	}
	if _, err := os.Stat(walSegmentPath(dir, 0)); !os.IsNotExist(err) {
		t.Fatalf("segment 0 still on disk: %v", err)
	}
	// Everything covered.
	w.deleteCovered(map[uint32]uint64{0: 1 << 32}, active)
	if len(w.sealed) != 0 {
		t.Fatalf("sealed not emptied: %d", len(w.sealed))
	}
	w.close()
}

var errInjected = errors.New("injected fault")

// TestWALStickyWriteError: with retries disabled, a permanent write or sync
// fault makes the WAL error sticky — every later append and sync reports it,
// refused row records are counted, and the health state is read-only.
func TestWALStickyWriteError(t *testing.T) {
	for _, mode := range []Op{OpWrite, OpSync} {
		dir := t.TempDir()
		ffs := &FaultFS{}
		w, err := newWAL(walConfig{
			dir: dir, segBytes: 1 << 20, fsync: -1,
			fs:     ffs,
			retry:  newRetryPolicy(-1, time.Microsecond),
			health: newHealthTracker(nil),
		}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mode == OpWrite {
			ffs.FailNextWriteShort(40, errInjected, nil)
			ffs.FailAll(OpWrite, errInjected, nil)
		} else {
			ffs.FailAll(OpSync, errInjected, nil)
		}

		if err := w.append(encAppend(0, "zz"), true, 0); !errors.Is(err, errInjected) {
			t.Fatalf("%v: first append err = %v", mode, err)
		}
		if err := w.append(encAppend(0, "zz"), true, 0); !errors.Is(err, errInjected) {
			t.Fatalf("%v: error not sticky: %v", mode, err)
		}
		if err := w.sync(); !errors.Is(err, errInjected) {
			t.Fatalf("%v: sync err = %v", mode, err)
		}
		if got := w.droppedRows(); got != 1 {
			t.Fatalf("%v: droppedRows = %d, want 1", mode, got)
		}
		if got := w.health.current(); got != StateReadOnly {
			t.Fatalf("%v: health = %v, want read-only", mode, got)
		}
		ffs.Clear()
		w.close()
	}
}

// TestWALRetryRecoversTransientFault: a fault shorter than the retry budget
// is absorbed — the flush succeeds, nothing is sticky, and a partially
// written buffer resumes at the first unwritten byte instead of duplicating
// frames (verified by replaying the segment).
func TestWALRetryRecoversTransientFault(t *testing.T) {
	for _, mode := range []Op{OpWrite, OpSync} {
		dir := t.TempDir()
		ffs := &FaultFS{}
		w, err := newWAL(walConfig{
			dir: dir, segBytes: 1 << 20, fsync: -1,
			fs:     ffs,
			retry:  retryPolicy{attempts: 4, backoff: time.Microsecond, sleep: func(time.Duration) {}},
			health: newHealthTracker(nil),
		}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if mode == OpWrite {
			ffs.FailNextWriteShort(3, errInjected, nil) // torn mid-preamble
		} else {
			ffs.FailNext(OpSync, 2, errInjected, nil)
		}
		for i := 0; i < 5; i++ {
			if err := w.append(encAppend(0, "val"), true, 0); err != nil {
				t.Fatalf("%v: append %d: %v", mode, i, err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatalf("%v: close: %v", mode, err)
		}

		b, err := os.ReadFile(walSegmentPath(dir, 0))
		if err != nil {
			t.Fatal(err)
		}
		if string(b[:4]) != walMagic {
			t.Fatalf("%v: bad preamble after retried write", mode)
		}
		off, appends := 5, 0
		for off < len(b) {
			var payload []byte
			payload, off, err = readFrame(b, off)
			if err != nil {
				t.Fatalf("%v: torn/duplicated frame at %d: %v", mode, off, err)
			}
			if payload[0] == recAppend {
				appends++
			}
		}
		if appends != 5 {
			t.Fatalf("%v: replayed %d appends, want 5", mode, appends)
		}
	}
}

// TestWALSyncsNewSegmentDir: every segment's directory entry is fsynced
// before the segment's first sync returns — the first segment and each one
// a rotation opens — so a power cut cannot lose the name of a file holding
// acknowledged rows. After every sync-every append, the WAL directory has
// seen one directory fsync per segment fsynced so far.
func TestWALSyncsNewSegmentDir(t *testing.T) {
	dir := t.TempDir()
	ffs := &FaultFS{}
	synced := map[string]bool{} // segments fsynced at least once
	dirSyncs := 0
	ffs.SetHook(func(op Op, path string) error {
		switch {
		case op == OpSync && filepath.Dir(path) == dir:
			synced[filepath.Base(path)] = true
		case op == OpSyncDir && path == dir:
			dirSyncs++
		}
		return nil
	})
	w, err := newWAL(walConfig{
		dir: dir, segBytes: 256, fsync: -1,
		fs:     ffs,
		retry:  newRetryPolicy(-1, time.Microsecond),
		health: newHealthTracker(nil),
	}, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; w.activeSeq() < 3; i++ {
		if err := w.append(encAppend(0, "row"), true, 0); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if dirSyncs != len(synced) {
			t.Fatalf("append %d (segment %d): %d directory fsyncs for %d fsynced segments", i, w.activeSeq(), dirSyncs, len(synced))
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	if err := writeAtomicFS(OS, p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(p)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read back: %q %v", b, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}
