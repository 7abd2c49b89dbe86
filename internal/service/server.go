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
	"strdict/internal/persist"
	"strdict/internal/tpch"
)

// Options configures a Server.
type Options struct {
	// Shards is the number of independent shards; <= 0 selects 1.
	Shards int
	// Dir is the root directory; each shard journals under
	// Dir/shard-NNNN. Empty disables persistence (in-memory shards).
	Dir string
	// FsyncInterval is passed to each shard's journal (0 = persist
	// default). The service calls Sync once per shard per append batch
	// regardless — that call is the group commit the API promises.
	FsyncInterval time.Duration
	// MemoryBudget is the server-wide memory target the gossip loop steers
	// the shards' compression trade-off towards. Default 1 GiB.
	MemoryBudget uint64
	// GossipInterval is the cadence of the memory-pressure exchange;
	// 0 selects 100ms, < 0 disables gossip.
	GossipInterval time.Duration
	// DeltaRowThreshold triggers a shard's merge daemon once a column's
	// delta holds this many rows; <= 0 selects 64k.
	DeltaRowThreshold int
	// HighWaterMark, when > 0, blocks appends once a column's unsealed
	// delta reaches this many rows (backpressure).
	HighWaterMark int
	// MergeInterval is each merge daemon's timer period (0 = scheduler
	// default).
	MergeInterval time.Duration
	// NoDaemons disables merge daemons and gossip: the server is a pure
	// request-driven front end (tests, torture harness).
	NoDaemons bool
	// MaxScanRows caps the row indices a single /v1/scan response carries
	// (the full match count is still reported). <= 0 selects 10000.
	MaxScanRows int
	// SampleRatio and Seed parameterize the dictionary sampling behind
	// merge-time format decisions; ratio <= 0 selects 0.01.
	SampleRatio float64
	Seed        int64
}

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
	if o.DeltaRowThreshold <= 0 {
		o.DeltaRowThreshold = 64 << 10
	}
	if o.MaxScanRows <= 0 {
		o.MaxScanRows = 10000
	}
	if o.SampleRatio <= 0 {
		o.SampleRatio = 0.01
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
	gossip *gossip

	// pinsLive / pinsTotal prove the snapshot-per-request lifecycle: every
	// query pins exactly one snapshot per touched shard, and pinsLive must
	// return to zero once no request is in flight. The torture service op
	// asserts exactly that.
	pinsLive  atomic.Int64
	pinsTotal atomic.Uint64
}

// New opens a server with opts.Shards independent shards. With a Dir, each
// shard recovers its journal from Dir/shard-NNNN; without one the shards
// are in-memory.
func New(opts Options) (*Server, error) {
	opts.fillDefaults()
	srv := &Server{opts: opts}
	ctx, cancel := context.WithCancel(context.Background())
	srv.cancel = cancel
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{id: i}
		if opts.Dir != "" {
			sh.dir = filepath.Join(opts.Dir, fmt.Sprintf("shard-%04d", i))
			ps, err := persist.Open(sh.dir, persist.Options{
				FsyncInterval: opts.FsyncInterval,
			})
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
		sh.mgr = core.NewManager(core.Options{
			// Each shard steers towards its slice of the global budget;
			// gossip replaces the local observation with the cluster-wide
			// one every round.
			DesiredFreeBytes: opts.MemoryBudget / 8,
		})
		if !opts.NoDaemons {
			sh.sched = colstore.NewMergeScheduler(sh.store, opts.DeltaRowThreshold)
			sh.sched.Interval = opts.MergeInterval
			sh.sched.HighWaterMark = opts.HighWaterMark
			sh.sched.PartialMerges = true
			sh.sched.Chooser = srv.chooserFor(sh)
			sh.sched.Start(ctx)
		}
		srv.shards = append(srv.shards, sh)
	}
	if !opts.NoDaemons && opts.GossipInterval > 0 {
		srv.gossip = newGossip(srv.shards, opts.MemoryBudget)
		go srv.gossip.run(ctx, opts.GossipInterval)
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
	srv := &Server{opts: opts, cancel: func() {}}
	for i, st := range stores {
		srv.shards = append(srv.shards, &shard{
			id:    i,
			store: st,
			mgr:   core.NewManager(core.Options{DesiredFreeBytes: opts.MemoryBudget / 8}),
		})
	}
	srv.routes()
	return srv
}

// chooserFor builds the merge-time format chooser for one shard: column
// statistics from the pinned snapshot, decision from the shard's own
// Manager (whose c the gossip loop keeps adjusting).
func (srv *Server) chooserFor(sh *shard) func(*colstore.Snapshot, float64) dict.Format {
	ratio, seed := srv.opts.SampleRatio, srv.opts.Seed
	return func(snap *colstore.Snapshot, lifetimeNs float64) dict.Format {
		return sh.mgr.ChooseFormat(tpch.SnapshotStatsOf(snap, lifetimeNs, ratio, seed)).Format
	}
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
