package service

import (
	"context"
	"sync/atomic"
	"time"
)

// gossip is the in-process memory-pressure exchange between shards. Each
// round, every shard publishes its current footprint to its own slot on
// the board (no shared lock with the selection path), then reads the sum
// of everyone's latest observation and feeds the implied cluster-wide free
// memory into its own Manager's feedback loop. The paper's Figure-8 loop
// assumed one global budget behind one lock; here every shard runs the
// same loop against an eventually-consistent view of the same budget, so
// selection keeps scaling with the shard count while all shards still
// converge on one memory target.
type gossip struct {
	shards []*shard
	budget uint64
	// board[i] is shard i's last published footprint in bytes. Slots are
	// written and read with atomics only — a shard never blocks on another
	// shard's publication.
	board []atomic.Uint64
	// rounds counts completed gossip rounds (introspection).
	rounds atomic.Uint64
}

func newGossip(shards []*shard, budget uint64) *gossip {
	return &gossip{
		shards: shards,
		budget: budget,
		board:  make([]atomic.Uint64, len(shards)),
	}
}

// step runs one gossip round: publish, then aggregate and observe.
func (g *gossip) step() {
	for i, sh := range g.shards {
		g.board[i].Store(sh.bytes())
	}
	var used uint64
	for i := range g.board {
		used += g.board[i].Load()
	}
	free := uint64(0)
	if used < g.budget {
		free = g.budget - used
	}
	for _, sh := range g.shards {
		sh.mgr.ObserveFreeMemory(free)
	}
	g.rounds.Add(1)
}

func (g *gossip) run(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.step()
		}
	}
}
