package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"strdict/internal/colstore"
	"strdict/internal/persist"
)

// rows validates the item and returns its row count: every column must
// carry the same number of values, at least one row, with valid names that
// are distinct across the three maps (a table has one column per name), and
// no string value may hold a NUL byte (dictionaries cannot store one).
func (it *AppendItem) rows() (int, error) {
	if !validName(it.Tenant, true) || !validName(it.Table, false) {
		return 0, fmt.Errorf("invalid tenant %q / table %q", it.Tenant, it.Table)
	}
	n := -1
	seen := make(map[string]bool, len(it.Strs)+len(it.Ints)+len(it.Floats))
	check := func(col string, k int) error {
		if !validName(col, false) {
			return fmt.Errorf("invalid column name %q", col)
		}
		if seen[col] {
			return fmt.Errorf("column %q is named twice", col)
		}
		seen[col] = true
		if n == -1 {
			n = k
		} else if k != n {
			return fmt.Errorf("column %q has %d rows, want %d", col, k, n)
		}
		return nil
	}
	err := eachColumn(it.Strs, check)
	if err == nil {
		err = eachColumn(it.Ints, check)
	}
	if err == nil {
		err = eachColumn(it.Floats, check)
	}
	if err != nil {
		return 0, err
	}
	for col, vals := range it.Strs {
		for _, v := range vals {
			if strings.IndexByte(v, 0) >= 0 {
				return 0, fmt.Errorf("column %q holds a value with a NUL byte", col)
			}
		}
	}
	if n <= 0 {
		return 0, fmt.Errorf("append item for %q carries no rows", it.Table)
	}
	return n, nil
}

// eachColumn calls f with the name and row count of every column in cols.
func eachColumn[V any](cols map[string][]V, f func(col string, rows int) error) error {
	for col, vals := range cols {
		if err := f(col, len(vals)); err != nil {
			return err
		}
	}
	return nil
}

type appendRequest struct {
	Appends []AppendItem `json:"appends"`
}

type appendResponse struct {
	Results []AppendResult `json:"results"`
	Rows    int            `json:"rows"`
}

func (srv *Server) routes() {
	srv.mux = http.NewServeMux()
	srv.mux.HandleFunc("POST /v1/append", srv.handleAppend)
	srv.mux.HandleFunc("GET /v1/scan", srv.handleScan)
	srv.mux.HandleFunc("GET /v1/count", srv.handleCount)
	srv.mux.HandleFunc("GET /v1/locate", srv.handleLocate)
	srv.mux.HandleFunc("GET /v1/stats", srv.handleStats)
	srv.mux.HandleFunc("GET /v1/health", srv.handleHealth)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// handleAppend lands a batch: items are validated, grouped by owning
// shard, applied shard-parallel under each shard's write lock, and each
// touched shard gets exactly one WAL group commit (Sync) for the whole
// batch. Items for a read-only shard fail with 503 while the rest of the
// batch proceeds.
func (srv *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req appendRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Appends) == 0 {
		writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	results := make([]AppendResult, len(req.Appends))
	rowCounts := make([]int, len(req.Appends))
	byShard := make(map[int][]int) // shard -> item indices, batch order preserved
	for i := range req.Appends {
		it := &req.Appends[i]
		n, err := it.rows()
		shardID := -1
		if err == nil {
			shardID = shardOf(it.Tenant, it.Table, len(srv.shards))
			rowCounts[i] = n
			byShard[shardID] = append(byShard[shardID], i)
		} else {
			results[i] = AppendResult{OK: false, Shard: -1, Error: err.Error()}
		}
		results[i].Shard = shardID
	}

	roFailed := make([]bool, len(req.Appends))
	var wg sync.WaitGroup
	for shardID, items := range byShard {
		wg.Add(1)
		go func(sh *shard, items []int) {
			defer wg.Done()
			sh.mu.Lock()
			for _, i := range items {
				if err := sh.apply(&req.Appends[i], rowCounts[i]); err != nil {
					results[i] = AppendResult{OK: false, Shard: sh.id, Error: err.Error()}
					roFailed[i] = errors.As(err, &errReadOnly{})
				} else {
					results[i] = AppendResult{OK: true, Shard: sh.id}
				}
			}
			sh.mu.Unlock()
			// One group commit per shard per batch.
			if err := sh.sync(); err != nil {
				for _, i := range items {
					if results[i].OK {
						results[i] = AppendResult{OK: false, Shard: sh.id, Error: "sync: " + err.Error()}
					}
				}
			}
		}(srv.shards[shardID], items)
	}
	wg.Wait()

	status := http.StatusOK
	rows := 0
	for i, res := range results {
		switch {
		case res.OK:
			rows += rowCounts[i]
		case roFailed[i]:
			status = http.StatusServiceUnavailable
		default:
			if status == http.StatusOK {
				status = http.StatusBadRequest
			}
		}
	}
	writeJSON(w, status, appendResponse{Results: results, Rows: rows})
}

// queryColumn resolves the query target and pins the request's snapshot.
// The returned release func must run on every exit path.
func (srv *Server) queryColumn(w http.ResponseWriter, r *http.Request) (*querySnap, bool) {
	q := r.URL.Query()
	tenant, table, col := q.Get("tenant"), q.Get("table"), q.Get("col")
	if !validName(tenant, true) || !validName(table, false) || !validName(col, false) {
		writeErr(w, http.StatusBadRequest, "tenant, table and col are required")
		return nil, false
	}
	shardID := shardOf(tenant, table, len(srv.shards))
	sh := srv.shards[shardID]
	sh.mu.RLock()
	c, err := sh.stringColumn(tenant, table, col)
	sh.mu.RUnlock()
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return nil, false
	}
	return &querySnap{srv: srv, shard: shardID, snap: srv.pin(c)}, true
}

type querySnap struct {
	srv   *Server
	shard int
	snap  *colstore.Snapshot
}

func (qs *querySnap) release() { qs.srv.unpin(qs.snap) }

// MaxScanRows caps the row indices a single /v1/scan response carries, so
// one unselective predicate cannot make the server encode (and the client
// decode) a row list the size of the table.
const MaxScanRows = 10000

// handleScan returns the row indices matching eq=<value> or
// lo=<lo>&hi=<hi> (half-open range), capped at MaxScanRows indices; the
// uncapped match count is always reported.
func (srv *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	qs, ok := srv.queryColumn(w, r)
	if !ok {
		return
	}
	defer qs.release()
	q := r.URL.Query()
	var rows []int
	switch {
	case q.Has("eq"):
		rows = qs.snap.ScanEq(q.Get("eq"), nil)
	case q.Has("lo") || q.Has("hi"):
		rows = qs.snap.ScanRange(q.Get("lo"), q.Get("hi"), nil)
	default:
		writeErr(w, http.StatusBadRequest, "scan needs eq= or lo=/hi=")
		return
	}
	count := len(rows)
	truncated := false
	if count > MaxScanRows {
		rows = rows[:MaxScanRows]
		truncated = true
	}
	if rows == nil {
		rows = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"shard":     qs.shard,
		"count":     count,
		"rows":      rows,
		"truncated": truncated,
	})
}

// handleCount returns the number of rows equal to value=.
func (srv *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	qs, ok := srv.queryColumn(w, r)
	if !ok {
		return
	}
	defer qs.release()
	writeJSON(w, http.StatusOK, map[string]any{
		"shard": qs.shard,
		"count": qs.snap.CountEq(r.URL.Query().Get("value")),
	})
}

// handleLocate returns the value ID of value= in the pinned dictionary.
func (srv *Server) handleLocate(w http.ResponseWriter, r *http.Request) {
	qs, ok := srv.queryColumn(w, r)
	if !ok {
		return
	}
	defer qs.release()
	code, found := qs.snap.Locate(r.URL.Query().Get("value"))
	writeJSON(w, http.StatusOK, map[string]any{
		"shard": qs.shard,
		"found": found,
		"code":  code,
	})
}

type shardStats struct {
	ID        int     `json:"id"`
	Health    string  `json:"health"`
	Tables    int     `json:"tables"`
	Rows      uint64  `json:"rows"`
	Bytes     uint64  `json:"bytes"`
	C         float64 `json:"c"`
	DictRaw   uint64  `json:"dict_raw_bytes"`
	DictBytes uint64  `json:"dict_bytes"`
	// DictRatio is raw dictionary content over its encoded footprint — the
	// paper's dictionary compression ratio, aggregated over the shard.
	DictRatio float64        `json:"dict_ratio"`
	Formats   map[string]int `json:"formats"`
}

// handleStats reports per-shard balance, health, the live trade-off c,
// format mix, and aggregate dictionary compression ratios.
func (srv *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	out := make([]shardStats, 0, len(srv.shards))
	for _, sh := range srv.shards {
		st := shardStats{
			ID:      sh.id,
			Health:  healthString(sh.health()),
			Rows:    sh.rows.Load(),
			Bytes:   sh.bytes(),
			C:       srv.mgr.C(),
			Formats: map[string]int{},
		}
		for _, name := range sh.store.TableNames() {
			tb, ok := sh.store.Lookup(name)
			if !ok {
				continue
			}
			st.Tables++
			for _, c := range tb.StringColumns() {
				snap := srv.pin(c)
				st.Formats[snap.Format().String()]++
				st.DictBytes += snap.DictBytes()
				st.DictRaw += snap.DictRawBytes()
				srv.unpin(snap)
			}
		}
		if st.DictBytes > 0 {
			st.DictRatio = float64(st.DictRaw) / float64(st.DictBytes)
		}
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"shards":        out,
		"pins_live":     srv.pinsLive.Load(),
		"pins_total":    srv.pinsTotal.Load(),
		"gossip_rounds": srv.gossipRounds.Load(),
		"memory_budget": srv.opts.MemoryBudget,
		"max_scan_rows": MaxScanRows,
		"shards_total":  len(srv.shards),
	})
}

// handleHealth aggregates the per-shard durability states; the response is
// 503 only when every shard is read-only (no shard can ingest).
func (srv *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	type shardHealth struct {
		ID     int    `json:"id"`
		Health string `json:"health"`
	}
	worst, allRO := persist.StateHealthy, true
	out := make([]shardHealth, 0, len(srv.shards))
	for _, sh := range srv.shards {
		h := sh.health()
		if h > worst {
			worst = h
		}
		if h != persist.StateReadOnly {
			allRO = false
		}
		out = append(out, shardHealth{ID: sh.id, Health: healthString(h)})
	}
	status := http.StatusOK
	if allRO {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{
		"health": healthString(worst),
		"shards": out,
	})
}
