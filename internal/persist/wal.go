package persist

// The delta write-ahead log. One directory of numbered segment files
// (wal-%08d.log); each segment starts with a 5-byte preamble (magic "SWAL",
// version) followed by CRC32C-framed records (see record.go). The first
// record is always a header carrying the segment's sequence number and, per
// column, the number of append records written to all earlier segments —
// the absolute record index the segment starts at. That table is what lets
// recovery replay a suffix of the log after older, checkpoint-covered
// segments have been deleted.
//
// Writes are group-committed: appends are framed into an in-memory buffer
// under the WAL mutex and acknowledged to disk by a flusher goroutine that
// writes and fsyncs the buffer every FsyncInterval (or inline, when the
// interval is negative). Rows are durable — guaranteed to survive a crash —
// only once their frame has been fsynced; Sync exposes the barrier. A
// segment's first fsync also fsyncs the directory, so its name is durable
// before any of its rows is.
//
// Rotation: once a segment's durable size passes segBytes, the WAL writes a
// seal record, fsyncs, closes the file and opens the next segment. Sealed
// segments are immutable; the journal deletes them once a checkpoint
// manifest covers every row they hold.
//
// Faults: every filesystem operation goes through the FS seam and a bounded
// retry policy. A write that fails mid-buffer is resumed from the first
// unwritten byte (bufOff), never re-sent from the start, so retried flushes
// cannot duplicate frames; fsync retries are idempotent. Only when the
// retry budget is spent does the error turn sticky — the WAL goes read-only
// (health StateReadOnly), later appends are refused and counted as dropped.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	walMagic   = "SWAL"
	walVersion = 1

	// DefaultFsyncInterval is the group-commit interval when Options leaves
	// it zero: small enough that a crash loses at most a few milliseconds of
	// acknowledged-to-memory rows, large enough to batch thousands of
	// appends per fsync.
	DefaultFsyncInterval = 5 * time.Millisecond

	// DefaultSegmentBytes is the rotation threshold when Options leaves it
	// zero.
	DefaultSegmentBytes = 4 << 20
)

// segmentInfo tracks one sealed on-disk segment.
type segmentInfo struct {
	seq  uint64
	path string
	// end holds, per column, the absolute append-record count at the end of
	// this segment (== the next segment's header table).
	end map[uint32]uint64
}

// walConfig bundles what newWAL needs beyond the recovery bookkeeping.
type walConfig struct {
	dir      string
	segBytes int64
	fsync    time.Duration
	fs       FS
	retry    retryPolicy
	health   *healthTracker
}

type wal struct {
	dir       string
	segBytes  int64
	syncEvery bool // fsync inline on every append (FsyncInterval < 0)
	fs        FS
	retry     retryPolicy
	health    *healthTracker

	mu      sync.Mutex
	f       File
	path    string
	seq     uint64            // current segment sequence number
	written int64             // bytes handed to f for the current segment
	durable int64             // bytes fsynced of the current segment
	buf     []byte            // framed records not yet fully written to f
	bufOff  int               // bytes of buf already written (partial flush)
	counts  map[uint32]uint64 // absolute append-record count per column
	sealed  []segmentInfo     // sealed segments still on disk, oldest first
	dirSync bool              // the active segment's name is durable
	err     error             // sticky write/sync failure
	dropped uint64            // append records refused after err turned sticky

	flushStop chan struct{}
	flushDone chan struct{}
}

func walSegmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

// parseWALSeq extracts the sequence number from a segment file name,
// returning ok=false for non-segment files.
func parseWALSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	var seq uint64
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &seq); err != nil {
		return 0, false
	}
	return seq, true
}

// listWALSegments returns the segment files in dir in ascending sequence
// order, listing through the FS seam so recovery faults are injectable.
func listWALSegments(fsys FS, dir string) ([]segmentInfo, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, name := range names {
		if seq, ok := parseWALSeq(name); ok {
			segs = append(segs, segmentInfo{seq: seq, path: filepath.Join(dir, name)})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].seq < segs[j].seq })
	return segs, nil
}

// newWAL opens a fresh active segment at seq, continuing the given absolute
// record counts and sealed-segment bookkeeping (both from recovery; empty
// on a fresh store), and starts the flusher unless syncEvery.
func newWAL(cfg walConfig, seq uint64, counts map[uint32]uint64, sealed []segmentInfo) (*wal, error) {
	if cfg.segBytes <= 0 {
		cfg.segBytes = DefaultSegmentBytes
	}
	if cfg.fs == nil {
		cfg.fs = OS
	}
	if cfg.health == nil {
		cfg.health = newHealthTracker(nil)
	}
	if cfg.retry.attempts == 0 {
		cfg.retry = newRetryPolicy(0, 0)
	}
	w := &wal{
		dir:      cfg.dir,
		segBytes: cfg.segBytes,
		fs:       cfg.fs,
		retry:    cfg.retry,
		health:   cfg.health,
		seq:      seq,
		counts:   counts,
		sealed:   sealed,
	}
	if counts == nil {
		w.counts = make(map[uint32]uint64)
	}
	if cfg.fsync < 0 {
		w.syncEvery = true
	}
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	if !w.syncEvery {
		interval := cfg.fsync
		if interval == 0 {
			interval = DefaultFsyncInterval
		}
		w.flushStop = make(chan struct{})
		w.flushDone = make(chan struct{})
		go w.flusher(interval)
	}
	return w, nil
}

// openSegmentLocked creates the active segment file and writes its preamble
// and header record (buffered; durable at the next flush).
func (w *wal) openSegmentLocked() error {
	w.path = walSegmentPath(w.dir, w.seq)
	err := w.retry.run(w.health, "create", func() error {
		f, cerr := w.fs.Create(w.path)
		if cerr != nil {
			return cerr
		}
		w.f = f
		return nil
	})
	if err != nil {
		return w.failLocked("create", err)
	}
	w.written, w.durable, w.dirSync = 0, 0, false
	w.buf = append(w.buf, walMagic...)
	w.buf = append(w.buf, walVersion)
	w.buf = appendFrame(w.buf, encHeader(w.seq, w.counts))
	return nil
}

// flusher is the group-commit goroutine.
func (w *wal) flusher(interval time.Duration) {
	defer close(w.flushDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.flushStop:
			return
		case <-t.C:
			w.mu.Lock()
			w.flushLocked()
			w.mu.Unlock()
		}
	}
}

// append frames a payload into the buffer. isAppend marks row records,
// whose absolute per-column count feeds segment headers; the count is
// bumped under the same lock that orders the record into the log, so the
// two can never disagree. Errors are sticky: after the retry budget is
// spent on a write/sync failure every later append reports it, and refused
// row records are counted (droppedRows) — rows are not silently dropped on
// a dead log.
func (w *wal) append(payload []byte, isAppend bool, id uint32) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		if isAppend {
			w.dropped++
		}
		return w.err
	}
	w.buf = appendFrame(w.buf, payload)
	if isAppend {
		w.counts[id]++
	}
	if w.syncEvery {
		return w.flushLocked()
	}
	return nil
}

// failLocked makes err sticky and publishes the read-only transition. The
// caller holds mu; delivery to the health hook is asynchronous, so this
// cannot deadlock against observers calling back into the store.
func (w *wal) failLocked(op string, err error) error {
	if w.err == nil {
		w.err = err
		w.health.observe(StateReadOnly, op, err)
	}
	return err
}

// flushLocked writes the buffer, fsyncs, and rotates if the segment is
// full. Transient faults are retried under the WAL's policy — a partial
// write resumes at bufOff, so frames are never duplicated — and only an
// exhausted budget turns the error sticky. The caller holds mu; retries
// (bounded, short backoff) stall appends for the duration, which is the
// intended backpressure while the disk misbehaves.
func (w *wal) flushLocked() error {
	if w.err != nil {
		return w.err
	}
	if w.bufOff < len(w.buf) {
		err := w.retry.run(w.health, "write", func() error {
			n, werr := w.f.Write(w.buf[w.bufOff:])
			w.written += int64(n)
			w.bufOff += n
			return werr
		})
		if err != nil {
			return w.failLocked("write", err)
		}
		w.buf = w.buf[:0]
		w.bufOff = 0
	}
	if w.durable == w.written {
		return nil
	}
	if err := w.retry.run(w.health, "sync", func() error { return w.f.Sync() }); err != nil {
		return w.failLocked("sync", err)
	}
	// A new segment's rows are durable only once its directory entry is:
	// a power cut can otherwise lose the name of a fsynced file.
	if !w.dirSync {
		if err := w.retry.run(w.health, "syncdir", func() error { return w.fs.SyncDir(w.dir) }); err != nil {
			return w.failLocked("syncdir", err)
		}
		w.dirSync = true
	}
	w.durable = w.written
	if w.durable >= w.segBytes {
		return w.rotateLocked()
	}
	return nil
}

// rotateLocked seals the active segment and opens the next one. The caller
// holds mu and has flushed; the seal record is written and fsynced so a
// sealed segment always ends on a complete frame.
func (w *wal) rotateLocked() error {
	seal := appendFrame(nil, []byte{recSeal})
	sealOff := 0
	err := w.retry.run(w.health, "write", func() error {
		n, werr := w.f.Write(seal[sealOff:])
		sealOff += n
		return werr
	})
	if err != nil {
		return w.failLocked("write", err)
	}
	if err := w.retry.run(w.health, "sync", func() error { return w.f.Sync() }); err != nil {
		return w.failLocked("sync", err)
	}
	if err := w.f.Close(); err != nil {
		return w.failLocked("close", err)
	}
	end := make(map[uint32]uint64, len(w.counts))
	for id, n := range w.counts {
		end[id] = n
	}
	w.sealed = append(w.sealed, segmentInfo{seq: w.seq, path: w.path, end: end})
	w.seq++
	return w.openSegmentLocked()
}

// sync forces a group commit: every row appended before the call is durable
// when it returns without error.
func (w *wal) sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushLocked()
}

// close stops the flusher, commits the remaining buffer and closes the
// active segment.
func (w *wal) close() error {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	err := w.flushLocked()
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
	}
	if w.err == nil {
		w.err = os.ErrClosed
	}
	return err
}

// crash abandons the WAL without flushing: the disk keeps only what was
// already written. Test hook simulating a process kill.
func (w *wal) crash() {
	w.stopFlusher()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		w.f.Close()
	}
	w.err = os.ErrClosed
}

func (w *wal) stopFlusher() {
	if w.flushStop != nil {
		close(w.flushStop)
		<-w.flushDone
		w.flushStop = nil
	}
}

// droppedRows reports how many append records were refused after the WAL
// turned sticky — the rows the in-memory store holds but durability lost.
func (w *wal) droppedRows() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.dropped
}

// activeSeq returns the sequence number of the segment currently being
// written.
func (w *wal) activeSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// deleteCovered removes sealed segments whose every row is covered by the
// given per-column durable row counts (elementwise: a segment survives if
// any column's count at its end exceeds the cover). Only segments with
// seq < maxSeq are eligible: the caller passes the segment that was active
// when the previous manifest was written, so both retained manifests are
// guaranteed to postdate — and therefore contain the schema of — every
// deleted segment. Segments are deleted oldest-first and deletion stops at
// the first survivor, keeping the on-disk chain contiguous.
func (w *wal) deleteCovered(cover map[uint32]uint64, maxSeq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(w.sealed) > 0 {
		seg := w.sealed[0]
		if seg.seq >= maxSeq {
			return
		}
		covered := true
		for id, n := range seg.end {
			if n > cover[id] {
				covered = false
				break
			}
		}
		if !covered {
			return
		}
		if err := w.fs.Remove(seg.path); err != nil && !os.IsNotExist(err) {
			return // try again at the next checkpoint
		}
		w.sealed = w.sealed[1:]
	}
}

// durableOffset reports the active segment path and its fsynced length
// (test hook: the crash-injection suite truncates beyond this point).
func (w *wal) durableOffset() (string, int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.path, w.durable
}
