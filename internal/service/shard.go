package service

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/persist"
)

// shard is one independent slice of the server: its own store (persistent
// or wrapped), its own compression Manager and merge daemon, its own
// journal directory. Shards share no mutable state — the only cross-shard
// coupling is the gossip board.
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
	mgr   *core.Manager
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
// must match the table's schema exactly on every later append, so rows stay
// aligned. Called under sh.mu.
func (sh *shard) apply(it *appendItem, n int) error {
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
	strCols := tb.StringColumns()
	intCols := tb.Int64Columns()
	floatCols := tb.Float64Columns()
	if len(it.Strs) != len(strCols) || len(it.Ints) != len(intCols) || len(it.Floats) != len(floatCols) {
		return fmt.Errorf("append to %q: column set does not match table schema", name)
	}
	for col, vals := range it.Strs {
		c, ok := tb.LookupString(col)
		if !ok {
			return fmt.Errorf("append to %q: no string column %q", name, col)
		}
		for _, v := range vals {
			c.Append(v)
		}
	}
	for col, vals := range it.Ints {
		c, ok := tb.LookupInt64(col)
		if !ok {
			return fmt.Errorf("append to %q: no int column %q", name, col)
		}
		for _, v := range vals {
			c.Append(v)
		}
	}
	for col, vals := range it.Floats {
		c, ok := tb.LookupFloat64(col)
		if !ok {
			return fmt.Errorf("append to %q: no float column %q", name, col)
		}
		for _, v := range vals {
			c.Append(v)
		}
	}
	sh.rows.Add(uint64(n))
	return nil
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
