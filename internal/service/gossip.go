package service

import (
	"context"
	"time"
)

// gossip is the memory-pressure loop: every interval it sums the shards'
// footprints and feeds the implied server-wide free memory to the Manager
// all shards select formats with — the paper's Figure-8 feedback loop, one
// budget and one trade-off c, with the shards as the columns' owners.
func (srv *Server) gossip(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var used uint64
			for _, sh := range srv.shards {
				used += sh.bytes()
			}
			free := uint64(0)
			if used < srv.opts.MemoryBudget {
				free = srv.opts.MemoryBudget - used
			}
			srv.mgr.ObserveFreeMemory(free)
			srv.gossipRounds.Add(1)
		}
	}
}
