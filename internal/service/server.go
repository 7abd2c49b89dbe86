package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/model"
	"strdict/internal/persist"
)

// Options configures a Server. The rest of the path from an append to a
// chosen format is fixed: scheduler-default merge interval, persist-default
// fsync cadence, model.DefaultSampleRatio with seed 0.
type Options struct {
	// Shards is the number of independent shards; <= 0 selects 1.
	Shards int
	// Dir is the root directory; each shard journals under
	// Dir/shard-NNNN. Empty disables persistence (in-memory shards).
	Dir string
	// MemoryBudget is the server-wide memory target the gossip loop steers
	// the shards' compression trade-off towards — the one quantity the
	// paper's manager takes from outside. Default 1 GiB.
	MemoryBudget uint64
	// GossipInterval is the cadence of the memory-pressure exchange;
	// 0 selects 100ms, < 0 disables gossip.
	GossipInterval time.Duration
	// NoDaemons disables merge daemons and gossip: the server is a pure
	// request-driven front end (tests, torture harness).
	NoDaemons bool
}

// deltaRowThreshold is the delta size, in rows, at which a shard's daemon
// merges a column; every workload in bench/ runs at it, none needed another.
const deltaRowThreshold = 64 << 10

func (o *Options) fillDefaults() {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.MemoryBudget == 0 {
		o.MemoryBudget = 1 << 30
	}
	if o.GossipInterval == 0 {
		o.GossipInterval = 100 * time.Millisecond
	}
}

// Server is the sharded multi-tenant store service. Create one with New
// (persistent shards under a directory) or NewWithStores (wrap existing
// stores), mount Handler on any net/http server, and Close when done.
type Server struct {
	opts   Options
	shards []*shard
	mux    *http.ServeMux
	cancel context.CancelFunc

	// mgr is the server's one compression Manager: every shard's merge
	// daemon selects formats with its trade-off c, which the gossip loop
	// adjusts from the summed footprint of all shards.
	mgr          *core.Manager
	gossipRounds atomic.Uint64 // completed gossip rounds (introspection)

	// pinsLive / pinsTotal prove the snapshot-per-request lifecycle: every
	// query pins exactly one snapshot per touched shard, and pinsLive must
	// return to zero once no request is in flight. The torture service op
	// asserts exactly that.
	pinsLive  atomic.Int64
	pinsTotal atomic.Uint64
}

// newManager returns the server's Manager: it rests once an eighth of the
// memory budget is free.
func newManager(opts Options) *core.Manager {
	return core.NewManager(core.Options{DesiredFreeBytes: opts.MemoryBudget / 8})
}

// New opens a server with opts.Shards independent shards. With a Dir, each
// shard recovers its journal from Dir/shard-NNNN; without one the shards
// are in-memory.
func New(opts Options) (*Server, error) {
	opts.fillDefaults()
	srv := &Server{opts: opts, mgr: newManager(opts)}
	ctx, cancel := context.WithCancel(context.Background())
	srv.cancel = cancel
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{id: i}
		if opts.Dir != "" {
			sh.dir = filepath.Join(opts.Dir, fmt.Sprintf("shard-%04d", i))
			// Default fsync cadence: the per-batch Sync (handleAppend) is
			// the group commit the API promises.
			ps, err := persist.Open(sh.dir, persist.Options{})
			if err != nil {
				cancel()
				srv.closeShards()
				return nil, fmt.Errorf("service: open shard %d: %w", i, err)
			}
			sh.ps = ps
			sh.store = ps.Store
		} else {
			sh.store = colstore.NewStore()
		}
		if !opts.NoDaemons {
			sh.sched = colstore.NewMergeScheduler(sh.store, deltaRowThreshold)
			sh.sched.PartialMerges = true
			// Merge-time format choice: column statistics from the pinned
			// snapshot, decision from the server's Manager (whose c the
			// gossip loop keeps adjusting).
			sh.sched.Chooser = func(snap *colstore.Snapshot, lifetimeNs float64) dict.Format {
				return srv.mgr.ChooseFormat(core.SnapshotStats(snap, lifetimeNs, model.DefaultSampleRatio, 0)).Format
			}
			sh.sched.Start(ctx)
		}
		srv.shards = append(srv.shards, sh)
	}
	if !opts.NoDaemons && opts.GossipInterval > 0 {
		go srv.gossip(ctx, opts.GossipInterval)
	}
	srv.routes()
	return srv, nil
}

// NewWithStores wraps existing stores as the server's shards — one shard
// per store, no persistence wiring, no daemons, no gossip. The torture
// harness uses this to drive the query API against a store whose oracle it
// already tracks; appends through the API land directly on the wrapped
// stores.
func NewWithStores(stores []*colstore.Store, opts Options) *Server {
	opts.Shards = len(stores)
	opts.NoDaemons = true
	opts.fillDefaults()
	srv := &Server{opts: opts, cancel: func() {}, mgr: newManager(opts)}
	for i, st := range stores {
		srv.shards = append(srv.shards, &shard{id: i, store: st})
	}
	srv.routes()
	return srv
}

// Handler returns the server's HTTP handler (the /v1 API).
func (srv *Server) Handler() http.Handler { return srv.mux }

// Close stops gossip and the merge daemons (draining deltas) and closes
// every shard's journal.
func (srv *Server) Close() error {
	srv.cancel()
	return srv.closeShards()
}

func (srv *Server) closeShards() error {
	var first error
	for _, sh := range srv.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// NumShards returns the shard count.
func (srv *Server) NumShards() int { return len(srv.shards) }

// ShardFor exposes the routing function: the shard index that owns
// (tenant, table).
func (srv *Server) ShardFor(tenant, table string) int {
	return shardOf(tenant, table, len(srv.shards))
}

// ShardRows returns the logical rows ingested through the service by shard
// i — the balance metric /v1/stats reports.
func (srv *Server) ShardRows(i int) uint64 { return srv.shards[i].rows.Load() }

// SetShardReadOnly is the admin override that makes shard i refuse appends
// with 503 as if its journal had degraded to read-only. Queries still
// serve. Used by failure drills and tests.
func (srv *Server) SetShardReadOnly(i int, ro bool) {
	srv.shards[i].forcedRO.Store(ro)
}

// PinnedSnapshots returns the number of snapshots currently pinned by
// in-flight requests. Zero when the server is idle — the no-leak invariant.
func (srv *Server) PinnedSnapshots() int64 { return srv.pinsLive.Load() }

// TotalPins returns the cumulative number of snapshots pinned since start.
func (srv *Server) TotalPins() uint64 { return srv.pinsTotal.Load() }

// pin takes the per-request snapshot and counts it; release with unpin on
// every exit path.
func (srv *Server) pin(c *colstore.StringColumn) *colstore.Snapshot {
	srv.pinsLive.Add(1)
	srv.pinsTotal.Add(1)
	return c.Snapshot()
}

func (srv *Server) unpin(s *colstore.Snapshot) {
	s.Release()
	srv.pinsLive.Add(-1)
}

// Sync flushes every persistent shard's WAL — a checkpoint-style barrier
// for tests and shutdown paths.
func (srv *Server) Sync() error {
	var errs []error
	for _, sh := range srv.shards {
		if err := sh.sync(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
