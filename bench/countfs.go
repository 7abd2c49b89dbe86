package main

import (
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"strdict/internal/persist"
)

// countFS is a pass-through persist.FS that counts what reaches the
// filesystem: every byte and call goes to the wrapped FS unchanged. It is
// installed through persist.Options.FS on stores the benchmark opens itself.
type countFS struct {
	base persist.FS

	writes     atomic.Int64
	writeBytes atomic.Int64
	walBytes   atomic.Int64 // the share of writeBytes that went to wal-*.log
	syncs      atomic.Int64 // file and directory fsyncs

	mu      sync.Mutex
	syncLat lat
}

func newCountFS() *countFS { return &countFS{base: persist.OS} }

func (c *countFS) timeSync(f func() error) error {
	start := time.Now()
	err := f()
	d := time.Since(start)
	c.syncs.Add(1)
	c.mu.Lock()
	c.syncLat.add(d)
	c.mu.Unlock()
	return err
}

func (c *countFS) Create(path string) (persist.File, error) {
	f, err := c.base.Create(path)
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, fs: c, wal: strings.HasPrefix(filepath.Base(path), "wal-")}, nil
}

func (c *countFS) Rename(oldpath, newpath string) error { return c.base.Rename(oldpath, newpath) }
func (c *countFS) Remove(path string) error             { return c.base.Remove(path) }
func (c *countFS) ReadDir(dir string) ([]string, error) { return c.base.ReadDir(dir) }
func (c *countFS) ReadFile(path string) ([]byte, error) { return c.base.ReadFile(path) }
func (c *countFS) Truncate(path string, size int64) error {
	return c.base.Truncate(path, size)
}

func (c *countFS) SyncDir(dir string) error {
	return c.timeSync(func() error { return c.base.SyncDir(dir) })
}

func (c *countFS) WriteFile(path string, data []byte) error {
	c.writes.Add(1)
	c.writeBytes.Add(int64(len(data)))
	return c.base.WriteFile(path, data)
}

type countFile struct {
	persist.File
	fs  *countFS
	wal bool
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.fs.writeBytes.Add(int64(n))
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countFile) Sync() error { return f.fs.timeSync(f.File.Sync) }
