package persist

// The filesystem seam. Every filesystem operation the durability paths
// perform — segment/part/manifest creation, writes, fsyncs, renames,
// removals, directory fsyncs, and since the incremental-checkpoint work
// also the read side (directory listings, manifest/part/segment reads,
// quarantine writes and truncation) — goes through one FS value, so a
// fault-injection implementation can fail any individual operation at any
// point in a run, including during Open/recovery. The crash suite and the
// torture harness (internal/torture) drive FaultFS; production stores use
// the default OS implementation. Byte-level corruption (flips, torn tails)
// is still injected directly on the files; the seam injects I/O errors.

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
)

// File is the writable-file surface the persist subsystem needs. The OS
// implementation is a thin *os.File; fault injectors wrap it.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS abstracts the mutating filesystem operations of the WAL and checkpoint
// paths. Implementations must be safe for concurrent use: the WAL flusher,
// merge-time checkpoints and store-wide checkpoints may operate at once.
type FS interface {
	// Create creates (truncating) the named file for writing.
	Create(path string) (File, error)
	// Rename atomically moves oldpath to newpath (same directory).
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(path string) error
	// SyncDir fsyncs a directory, making a just-renamed or just-created
	// name durable.
	SyncDir(dir string) error
	// ReadDir lists the file names in a directory, sorted.
	ReadDir(dir string) ([]string, error)
	// ReadFile reads a whole file (recovery's manifest/part/segment loads).
	ReadFile(path string) ([]byte, error)
	// WriteFile writes a whole file non-atomically (quarantine side files;
	// durable artifacts go through Create + writeAtomicFS instead).
	WriteFile(path string, data []byte) error
	// Truncate cuts a file to size (recovery dropping a torn WAL tail).
	Truncate(path string, size int64) error
}

// osFS is the production FS: straight passthrough to the os package.
type osFS struct{}

func (osFS) Create(path string) (File, error)     { return os.Create(path) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error             { return os.Remove(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (osFS) WriteFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

func (osFS) Truncate(path string, size int64) error { return os.Truncate(path, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// OS is the default filesystem used when Options.FS is nil.
var OS FS = osFS{}

// mkdirDurable creates dir and any missing parents, then fsyncs the parent
// of every level it created, so the new directory's name survives a power
// cut as the WAL segments inside it do. Levels that already existed cost
// nothing.
func mkdirDurable(fsys FS, dir string) error {
	var created []string
	for d := filepath.Clean(dir); ; d = filepath.Dir(d) {
		if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) || filepath.Dir(d) == d {
			break
		}
		created = append(created, d)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range created {
		if err := fsys.SyncDir(filepath.Dir(d)); err != nil {
			return err
		}
	}
	return nil
}

// writeAtomicFS makes data appear at path all-or-nothing: tmp file, fsync,
// rename, directory fsync. Idempotent — a failed attempt leaves at worst a
// stale .tmp file that the next attempt truncates and GC removes — so
// callers may retry it wholesale on transient faults.
func writeAtomicFS(fsys FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = fsys.Rename(tmp, path)
	}
	if werr != nil {
		fsys.Remove(tmp)
		return werr
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// Op identifies one class of FS operation for fault planning.
type Op uint8

const (
	OpCreate Op = iota
	OpWrite
	OpSync
	OpClose
	OpRename
	OpRemove
	OpSyncDir
	OpReadDir
	OpReadFile
	OpWriteFile
	OpTruncate
	numOps
)

var opNames = [numOps]string{
	"create", "write", "sync", "close", "rename", "remove", "syncdir",
	"readdir", "readfile", "writefile", "truncate",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// FaultFS wraps a base FS and injects faults according to a hook consulted
// before every operation. The zero hook passes everything through. All
// methods are safe for concurrent use; plans installed by the helpers below
// are consumed atomically, so "fail the next N syncs" means exactly N even
// under concurrent flushers.
type FaultFS struct {
	// Base is the wrapped filesystem; nil means OS.
	Base FS

	mu     sync.Mutex
	hook   func(op Op, path string) error
	counts [numOps]uint64
	plans  []*faultPlan
}

// faultPlan is one installed injection rule.
type faultPlan struct {
	op        Op
	match     func(path string) bool // nil: any path
	remaining int                    // <0: permanent
	partial   int                    // OpWrite only: bytes written before failing (<0: none)
	err       error
}

func (f *FaultFS) base() FS {
	if f.Base == nil {
		return OS
	}
	return f.Base
}

// SetHook installs an arbitrary injection hook, consulted (under the
// FaultFS lock) before every operation; a non-nil return is injected as
// that operation's error. It overrides nothing: installed plans are checked
// first. A nil hook clears it.
func (f *FaultFS) SetHook(hook func(op Op, path string) error) {
	f.mu.Lock()
	f.hook = hook
	f.mu.Unlock()
}

// FailNext makes the next n operations of the given kind (whose path
// matches the filter, if non-nil) fail with err — a transient fault.
func (f *FaultFS) FailNext(op Op, n int, err error, match func(path string) bool) {
	f.mu.Lock()
	f.plans = append(f.plans, &faultPlan{op: op, match: match, remaining: n, partial: -1, err: err})
	f.mu.Unlock()
}

// FailAll makes every subsequent operation of the given kind fail with err —
// a permanent fault — until Clear.
func (f *FaultFS) FailAll(op Op, err error, match func(path string) bool) {
	f.mu.Lock()
	f.plans = append(f.plans, &faultPlan{op: op, match: match, remaining: -1, partial: -1, err: err})
	f.mu.Unlock()
}

// FailNextWriteShort makes the next matching write persist only the first
// k bytes before failing with err — a torn-write fault.
func (f *FaultFS) FailNextWriteShort(k int, err error, match func(path string) bool) {
	f.mu.Lock()
	f.plans = append(f.plans, &faultPlan{op: OpWrite, match: match, remaining: 1, partial: k, err: err})
	f.mu.Unlock()
}

// Clear removes every installed plan and hook.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	f.plans = nil
	f.hook = nil
	f.mu.Unlock()
}

// OpCount reports how many operations of the given kind have been issued
// (including injected failures).
func (f *FaultFS) OpCount(op Op) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check counts the operation and returns the fault to inject, if any. For
// OpWrite it also reports how many bytes to pass through first (-1: none).
func (f *FaultFS) check(op Op, path string) (error, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	for i, p := range f.plans {
		if p.op != op || p.remaining == 0 {
			continue
		}
		if p.match != nil && !p.match(path) {
			continue
		}
		if p.remaining > 0 {
			p.remaining--
			if p.remaining == 0 {
				f.plans = append(f.plans[:i], f.plans[i+1:]...)
			}
		}
		return p.err, p.partial
	}
	if f.hook != nil {
		return f.hook(op, path), -1
	}
	return nil, -1
}

func (f *FaultFS) Create(path string) (File, error) {
	if err, _ := f.check(OpCreate, path); err != nil {
		return nil, err
	}
	file, err := f.base().Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: path}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := f.check(OpRename, newpath); err != nil {
		return err
	}
	return f.base().Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err, _ := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.base().Remove(path)
}

func (f *FaultFS) SyncDir(dir string) error {
	if err, _ := f.check(OpSyncDir, dir); err != nil {
		return err
	}
	return f.base().SyncDir(dir)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err, _ := f.check(OpReadDir, dir); err != nil {
		return nil, err
	}
	return f.base().ReadDir(dir)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err, _ := f.check(OpReadFile, path); err != nil {
		return nil, err
	}
	return f.base().ReadFile(path)
}

func (f *FaultFS) WriteFile(path string, data []byte) error {
	if err, _ := f.check(OpWriteFile, path); err != nil {
		return err
	}
	return f.base().WriteFile(path, data)
}

func (f *FaultFS) Truncate(path string, size int64) error {
	if err, _ := f.check(OpTruncate, path); err != nil {
		return err
	}
	return f.base().Truncate(path, size)
}

// faultFile routes a file's write/sync/close through the owning FaultFS.
type faultFile struct {
	fs   *FaultFS
	f    File
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	err, partial := ff.fs.check(OpWrite, ff.path)
	if err != nil {
		n := 0
		if partial > 0 {
			if partial > len(p) {
				partial = len(p)
			}
			n, _ = ff.f.Write(p[:partial])
		}
		return n, err
	}
	return ff.f.Write(p)
}

func (ff *faultFile) Sync() error {
	if err, _ := ff.fs.check(OpSync, ff.path); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error {
	if err, _ := ff.fs.check(OpClose, ff.path); err != nil {
		return err
	}
	return ff.f.Close()
}
