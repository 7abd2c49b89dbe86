package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"strdict/internal/colstore"
	"strdict/internal/dict"
	"strdict/internal/persist"
)

// shard is one independent slice of the server: its own store (persistent
// or wrapped), its own merge daemon, its own journal directory. Shards share
// no mutable state but the server's compression Manager, whose trade-off c
// every shard's merge daemon selects formats with.
type shard struct {
	id  int
	dir string

	// mu serializes appends and DDL on this shard: multi-column batch
	// appends must land as aligned rows, numeric column appends are not
	// goroutine-safe, and on-demand table creation must not race other
	// writers. Queries take the read side only long enough to resolve a
	// column; scans then run lock-free on a pinned snapshot.
	mu sync.RWMutex

	store *colstore.Store
	ps    *persist.Store // nil for wrapped (NewWithStores) shards
	sched *colstore.MergeScheduler

	// forcedRO is the admin/test override that makes the shard refuse
	// appends as if its journal had gone read-only.
	forcedRO atomic.Bool
	// rows counts logical rows ingested through the service (per-shard
	// balance reporting).
	rows atomic.Uint64
}

// health is the shard's durability state: the persist journal's state
// machine when the shard is persistent, Healthy for wrapped stores, with
// the admin override taking precedence.
func (sh *shard) health() persist.HealthState {
	if sh.forcedRO.Load() {
		return persist.StateReadOnly
	}
	if sh.ps != nil {
		return sh.ps.Health()
	}
	return persist.StateHealthy
}

func healthString(h persist.HealthState) string {
	switch h {
	case persist.StateHealthy:
		return "healthy"
	case persist.StateDegraded:
		return "degraded"
	default:
		return "readonly"
	}
}

// bytes sizes the shard's store under the read lock: numeric columns are
// plain slices that apply grows under the write lock.
func (sh *shard) bytes() uint64 {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.store.Bytes()
}

// errReadOnly marks append rejections that map to 503.
type errReadOnly struct{ shard int }

func (e errReadOnly) Error() string {
	return fmt.Sprintf("shard %d is read-only", e.shard)
}

// apply lands one batch item (n aligned rows across the item's columns) on
// the shard, creating the table on first touch. Caller-supplied column sets
// must match the table's schema exactly on every later append, and an item
// is applied to all of its columns or to none — every named column is
// resolved before the first row lands — so rows stay aligned. Called under
// sh.mu.
func (sh *shard) apply(it *AppendItem, n int) error {
	if sh.health() == persist.StateReadOnly {
		return errReadOnly{sh.id}
	}
	name := qualify(it.Tenant, it.Table)
	tb, ok := sh.store.Lookup(name)
	if !ok {
		tb = sh.store.AddTable(name)
		for _, col := range sortedKeys(it.Strs) {
			tb.AddString(col, dict.Array)
		}
		for _, col := range sortedKeys(it.Ints) {
			tb.AddInt64(col)
		}
		for _, col := range sortedKeys(it.Floats) {
			tb.AddFloat64(col)
		}
	}
	// The item's names are distinct (AppendItem.rows), so as many names as
	// the table has columns, each resolving, is the exact schema.
	if len(it.Strs)+len(it.Ints)+len(it.Floats) != len(tb.ColumnNames()) {
		return fmt.Errorf("append to %q: column set does not match table schema", name)
	}
	writes, err := bind(nil, "string", it.Strs, tb.LookupString)
	if err == nil {
		writes, err = bind(writes, "int", it.Ints, tb.LookupInt64)
	}
	if err == nil {
		writes, err = bind(writes, "float", it.Floats, tb.LookupFloat64)
	}
	if err != nil {
		return fmt.Errorf("append to %q: %w", name, err)
	}
	for _, write := range writes {
		write()
	}
	sh.rows.Add(uint64(n))
	return nil
}

// bind resolves an item's columns of one type against the table and adds one
// write per column — the function that appends the column's values — to
// writes. It appends no row itself: apply runs the writes once every column
// of the item has resolved.
func bind[V any, C interface{ Append(V) }](writes []func(), kind string, cols map[string][]V, lookup func(string) (C, bool)) ([]func(), error) {
	for col, vals := range cols {
		c, ok := lookup(col)
		if !ok {
			return nil, fmt.Errorf("no %s column %q", kind, col)
		}
		writes = append(writes, func() {
			for _, v := range vals {
				c.Append(v)
			}
		})
	}
	return writes, nil
}

// sync is the per-batch WAL group commit: one fsync covering every row the
// batch appended to this shard. No-op for wrapped shards.
func (sh *shard) sync() error {
	if sh.ps == nil {
		return nil
	}
	return sh.ps.Sync()
}

// stringColumn resolves a string column for a query without creating
// anything.
func (sh *shard) stringColumn(tenant, table, col string) (*colstore.StringColumn, error) {
	tb, ok := sh.store.Lookup(qualify(tenant, table))
	if !ok {
		return nil, fmt.Errorf("no table %q for tenant %q", table, tenant)
	}
	c, ok := tb.LookupString(col)
	if !ok {
		return nil, fmt.Errorf("no string column %q in table %q", col, table)
	}
	return c, nil
}

// close shuts the shard down: the merge daemon first (drains deltas), then
// the journal.
func (sh *shard) close() error {
	var first error
	if sh.sched != nil {
		if err := sh.sched.Close(); err != nil && first == nil {
			first = err
		}
	}
	if sh.ps != nil {
		if err := sh.ps.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
