package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Client is a thin typed client for the /v1 API — what bench/ and the
// tests speak; any HTTP client works against the same endpoints.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the underlying client; nil uses http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// StatusError reports a non-2xx API response.
type StatusError struct {
	Code int
	Body string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Code, e.Body)
}

// IsUnavailable reports whether err is a 503 from the service (a read-only
// shard refusing appends).
func IsUnavailable(err error) bool {
	se, ok := err.(*StatusError)
	return ok && se.Code == http.StatusServiceUnavailable
}

// maxSizedBody bounds the buffer do allocates up front from a response's
// Content-Length; a longer or unsized body grows through io.ReadAll.
const maxSizedBody = 1 << 20

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var body []byte
	if n := resp.ContentLength; n >= 0 && n <= maxSizedBody {
		body = make([]byte, n)
		_, err = io.ReadFull(resp.Body, body)
	} else {
		body, err = io.ReadAll(resp.Body)
	}
	if err != nil {
		return fmt.Errorf("service: reading %s response: %w", req.URL.Path, err)
	}
	if resp.StatusCode/100 != 2 {
		return &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(body))}
	}
	switch out := out.(type) {
	case nil:
		return nil
	case *ScanResult:
		*out, err = parseScanBody(body)
		return err
	}
	return json.Unmarshal(body, out)
}

func (c *Client) get(path string, q url.Values, out any) error {
	req, err := http.NewRequest(http.MethodGet, c.Base+path+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// AppendItem is one batched-append element: n aligned rows for one
// (tenant, table), given column-wise. Client and server share the type.
type AppendItem struct {
	Tenant string               `json:"tenant"`
	Table  string               `json:"table"`
	Strs   map[string][]string  `json:"strs,omitempty"`
	Ints   map[string][]int64   `json:"ints,omitempty"`
	Floats map[string][]float64 `json:"floats,omitempty"`
}

// AppendResult is the per-item outcome of a batch.
type AppendResult struct {
	OK    bool   `json:"ok"`
	Shard int    `json:"shard"`
	Error string `json:"error,omitempty"`
}

// Append posts one batch. The returned per-item results are valid even
// when the call errors with a *StatusError carrying 400/503 — mixed
// batches report per item.
func (c *Client) Append(items []AppendItem) ([]AppendResult, error) {
	body, err := json.Marshal(appendRequest{Appends: items})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.Base+"/v1/append", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var out appendResponse
	err = c.do(req, &out)
	if se, ok := err.(*StatusError); ok {
		// Recover per-item results from the error body when present.
		var parsed appendResponse
		if json.Unmarshal([]byte(se.Body), &parsed) == nil {
			return parsed.Results, err
		}
	}
	return out.Results, err
}

func queryArgs(tenant, table, col string) url.Values {
	return url.Values{"tenant": {tenant}, "table": {table}, "col": {col}}
}

// ScanResult is a /v1/scan response. The body has one fixed shape
// (appendScanBody), and the client reads no other.
type ScanResult struct {
	Shard     int   `json:"shard"`
	Count     int   `json:"count"`
	Rows      []int `json:"rows"`
	Truncated bool  `json:"truncated"`
}

// ScanEq returns the rows of (tenant, table, col) equal to value.
func (c *Client) ScanEq(tenant, table, col, value string) (ScanResult, error) {
	q := queryArgs(tenant, table, col)
	q.Set("eq", value)
	return c.scan(q)
}

// ScanRange returns the rows with lo <= value < hi.
func (c *Client) ScanRange(tenant, table, col, lo, hi string) (ScanResult, error) {
	q := queryArgs(tenant, table, col)
	q.Set("lo", lo)
	q.Set("hi", hi)
	return c.scan(q)
}

func (c *Client) scan(q url.Values) (ScanResult, error) {
	var out ScanResult
	err := c.get("/v1/scan", q, &out)
	return out, err
}

// CountEq returns the number of rows equal to value.
func (c *Client) CountEq(tenant, table, col, value string) (int, error) {
	q := queryArgs(tenant, table, col)
	q.Set("value", value)
	var out struct {
		Count int `json:"count"`
	}
	err := c.get("/v1/count", q, &out)
	return out.Count, err
}

// Locate returns the dictionary value ID of value in the pinned snapshot.
func (c *Client) Locate(tenant, table, col, value string) (uint32, bool, error) {
	q := queryArgs(tenant, table, col)
	q.Set("value", value)
	var out struct {
		Found bool   `json:"found"`
		Code  uint32 `json:"code"`
	}
	err := c.get("/v1/locate", q, &out)
	return out.Code, out.Found, err
}

// Stats fetches /v1/stats as loosely-typed JSON.
func (c *Client) Stats() (map[string]any, error) {
	var out map[string]any
	err := c.get("/v1/stats", url.Values{}, &out)
	return out, err
}

// Health fetches /v1/health; ok is false when every shard is read-only.
func (c *Client) Health() (state string, ok bool, err error) {
	var out struct {
		Health string `json:"health"`
	}
	err = c.get("/v1/health", url.Values{}, &out)
	if se, isSE := err.(*StatusError); isSE && se.Code == http.StatusServiceUnavailable {
		var parsed struct {
			Health string `json:"health"`
		}
		if json.Unmarshal([]byte(se.Body), &parsed) == nil {
			return parsed.Health, false, nil
		}
	}
	return out.Health, err == nil, err
}
