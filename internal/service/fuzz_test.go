package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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

// FuzzScanBody holds the client's scan-body parser to encoding/json and to
// the server's encoder. On arbitrary bytes parseScanBody must not panic, and
// whatever it accepts json.Unmarshal must accept as an equal ScanResult.
// Every body appendScanBody writes from fuzzed (rows, count, shard,
// truncated), rows taken as 8-byte little-endian words, must equal what
// json.Encoder writes for the same keys in a map and parse back exactly.
func FuzzScanBody(f *testing.F) {
	for _, body := range []string{
		`{"count":2,"rows":[0,2],"shard":1,"truncated":false}` + "\n",
		`{"count":0,"rows":[],"shard":0,"truncated":false}` + "\n",
		`{"count":10001,"rows":[4294967296],"shard":12,"truncated":true}` + "\n",
		`{"count":-0,"rows":[-9223372036854775808,9223372036854775807],"shard":-1,"truncated":true}` + "\n",
		`{"count":1,"rows":[9223372036854775808],"shard":0,"truncated":false}` + "\n",
		`{"count":1,"rows":[01],"shard":0,"truncated":false}` + "\n",
		`{"count":1,"rows":[1e3],"shard":0,"truncated":false}` + "\n",
		`{"count":1,"rows":[1,],"shard":0,"truncated":false}` + "\n",
		`{"count":0,"rows":null,"shard":0,"truncated":false}` + "\n",
		`{"count": 1, "rows": [1], "shard": 0, "truncated": false}`,
		`{"error":"scan needs eq= or lo=/hi="}` + "\n",
	} {
		f.Add([]byte(body), []byte{1, 0, 0, 0, 0, 0, 0, 0}, 1, 0, false)
	}
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80}, 10001, 17, true)

	f.Fuzz(func(t *testing.T, body, rowBytes []byte, count, shard int, truncated bool) {
		if got, err := parseScanBody(body); err == nil {
			var want ScanResult
			if err := json.Unmarshal(body, &want); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("parseScanBody(%q) = %+v; json.Unmarshal = %+v, %v", body, got, want, err)
			}
		}

		res := ScanResult{Shard: shard, Count: count, Rows: make([]int, len(rowBytes)/8), Truncated: truncated}
		for i := range res.Rows {
			res.Rows[i] = int(binary.LittleEndian.Uint64(rowBytes[8*i:]))
		}
		enc := appendScanBody(nil, res)
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(map[string]any{
			"shard": res.Shard, "count": res.Count, "rows": res.Rows, "truncated": res.Truncated,
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, want.Bytes()) {
			t.Fatalf("appendScanBody(%+v) = %q, encoding/json writes %q", res, enc, want.Bytes())
		}
		if got, err := parseScanBody(enc); err != nil || !reflect.DeepEqual(got, res) {
			t.Fatalf("parseScanBody(%q) = %+v, %v; want %+v", enc, got, err, res)
		}
	})
}
