// Package service puts a network front door on the engine: a sharded,
// multi-tenant store server behind a stdlib net/http JSON API.
//
// A Router hashes (tenant, table) across N shards. Each shard owns its own
// colstore, merge daemon, and persist journal under a per-shard directory,
// so ingest and format selection scale with the shard count. Appends are
// batched and grouped per shard (one WAL group commit per shard per batch),
// and an item lands on all of its columns or on none; every query pins
// exactly one Snapshot per touched shard and releases it when the response
// is written, on error paths included. The shards select formats with one
// compression Manager, whose trade-off c a gossip loop steers from their
// summed memory footprint — the paper's Figure-8 feedback loop.
package service

import "hash/fnv"

// routeKey is the canonical hash input for a (tenant, table) pair. The
// separator cannot appear in either component (names are validated), so
// distinct pairs never collide onto the same key.
func routeKey(tenant, table string) string {
	return tenant + "\x00" + table
}

// shardOf routes a (tenant, table) pair to one of n shards. The mapping is
// a pure function of the names (FNV-1a over the route key, mod n): the same
// pair routes to the same shard on every process start, with no rebalance
// state to persist.
func shardOf(tenant, table string, n int) int {
	h := fnv.New64a()
	h.Write([]byte(routeKey(tenant, table)))
	return int(h.Sum64() % uint64(n))
}

// qualify maps a (tenant, table) pair to the physical table name inside the
// owning shard's store. The empty tenant maps to the bare table name so a
// server can wrap a pre-existing store (NewWithStores) and address its
// tables directly.
func qualify(tenant, table string) string {
	if tenant == "" {
		return table
	}
	return tenant + "/" + table
}

// validName reports whether a tenant, table, or column name is acceptable:
// non-empty (except tenants), and free of the separator bytes the router
// and qualifier reserve.
func validName(s string, allowEmpty bool) bool {
	if s == "" {
		return allowEmpty
	}
	for i := 0; i < len(s); i++ {
		if s[i] == 0 || s[i] == '/' {
			return false
		}
	}
	return true
}
