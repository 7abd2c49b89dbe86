package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"strdict/internal/dict"
)

// FuzzAppendBody feeds arbitrary bytes to POST /v1/append on an in-memory
// two-shard server without daemons. The body is decoded again here, the way
// the handler decodes it, and the accepted items (results[i].OK) are the
// oracle: the handler must not panic, must answer 200 when every item landed
// and 400 otherwise, must report the accepted items' rows, must leave every
// table's columns equally long, and, once every string column is merged
// into fc block, every accepted value must count exactly as often as it was
// accepted.
func FuzzAppendBody(f *testing.F) {
	batch := func(items ...AppendItem) []byte {
		b, err := json.Marshal(appendRequest{Appends: items})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	valid := oneItem("acme", "t", []string{"b", "a", "b"})
	mismatched := oneItem("acme", "t", []string{"a", "b"})
	mismatched.Ints["n"] = []int64{1}
	twiceNamed := oneItem("acme", "t", []string{"a"})
	twiceNamed.Floats = map[string][]float64{"name": {0.5}}
	otherSchema := AppendItem{Tenant: "acme", Table: "t", Strs: map[string][]string{"other": {"x"}}}
	f.Add(batch(valid, oneItem("", "u", []string{"x", "y"})))
	f.Add(batch(oneItem("acme", "nul", []string{"a\x00b", "a", "a\x00", "zz"}), valid))
	f.Add(batch(mismatched))
	f.Add(batch(twiceNamed))
	f.Add(batch(valid, otherSchema))
	f.Add(batch())
	f.Add([]byte("not json"))

	f.Fuzz(func(t *testing.T, body []byte) {
		srv, err := New(Options{Shards: 2, NoDaemons: true})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/append", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}

		// What landed, per shard and qualified table: rows, and per
		// (column, value) the number of accepted rows.
		type key struct {
			shard int
			table string
		}
		rows := make(map[key]int)
		counts := make(map[key]map[[2]string]int)
		var req appendRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil && len(req.Appends) > 0 {
			var resp appendResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(req.Appends) {
				t.Fatalf("response %s for %d items (%v)", rec.Body, len(req.Appends), err)
			}
			allOK, total := true, 0
			for i, res := range resp.Results {
				if !res.OK {
					allOK = false
					continue
				}
				it := req.Appends[i]
				k := key{srv.ShardFor(it.Tenant, it.Table), qualify(it.Tenant, it.Table)}
				if counts[k] == nil {
					counts[k] = make(map[[2]string]int)
				}
				n := -1
				lens := func(l int) {
					if n != -1 && l != n {
						t.Fatalf("accepted item %d has columns of %d and %d rows", i, n, l)
					}
					n = l
				}
				for col, vals := range it.Strs {
					lens(len(vals))
					for _, v := range vals {
						counts[k][[2]string{col, v}]++
					}
				}
				for _, vals := range it.Ints {
					lens(len(vals))
				}
				for _, vals := range it.Floats {
					lens(len(vals))
				}
				rows[k] += n
				total += n
			}
			if (rec.Code == http.StatusOK) != allOK {
				t.Fatalf("status %d with every item accepted = %v", rec.Code, allOK)
			}
			if resp.Rows != total {
				t.Fatalf("response reports %d rows, accepted items carry %d", resp.Rows, total)
			}
		} else if rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d for a body without items", rec.Code)
		}

		tables := 0
		for i, sh := range srv.shards {
			for _, name := range sh.store.TableNames() {
				tables++
				k := key{i, name}
				tb := sh.store.Table(name)
				for _, c := range tb.NumericColumns() {
					if c.Len() != rows[k] {
						t.Fatalf("%s.%s holds %d rows, %d accepted", name, c.Name(), c.Len(), rows[k])
					}
				}
				for _, c := range tb.StringColumns() {
					if c.Len() != rows[k] {
						t.Fatalf("%s.%s holds %d rows, %d accepted", name, c.Name(), c.Len(), rows[k])
					}
					c.Merge(dict.FCBlock)
				}
				for cv, want := range counts[k] {
					snap := tb.Str(cv[0]).Snapshot()
					got := snap.CountEq(cv[1])
					snap.Release()
					if got != want {
						t.Fatalf("%s.%s: CountEq(%q) = %d after an fc block merge, %d accepted", name, cv[0], cv[1], got, want)
					}
				}
			}
		}
		if tables != len(rows) {
			t.Fatalf("%d tables exist, %d received accepted rows", tables, len(rows))
		}
	})
}
