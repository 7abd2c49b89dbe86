package service

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
)

// The /v1/scan body has one fixed shape, written by handleScan and read by
// Client.ScanEq and Client.ScanRange:
//
//	{"count":N,"rows":[r0,r1,…],"shard":S,"truncated":B}\n
//
// These are the bytes json.Encoder writes for the same four keys in a map
// (sorted keys, no spaces, one trailing newline), so any JSON client reads
// them. Both sides go without reflection because a scan body is mostly row
// indices, and encoding/json spent more time on them than the scan kernels
// spent finding them.

// errScanBody reports a /v1/scan body of any other shape.
var errScanBody = errors.New("service: /v1/scan body is not of the scan shape")

// maxPooledScanBuf caps the buffers scanBufs keeps, so a burst of large
// bodies does not stay on the heap.
const maxPooledScanBuf = 64 << 10

var scanBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeScanBody writes res as a 200 /v1/scan response.
func writeScanBody(w http.ResponseWriter, res ScanResult) {
	bp := scanBufs.Get().(*[]byte)
	b := appendScanBody((*bp)[:0], res)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Write(b) // fails only once the client is gone: no one is left to tell
	if cap(b) <= maxPooledScanBuf {
		*bp = b
		scanBufs.Put(bp)
	}
}

// appendScanBody appends res's /v1/scan body to b.
func appendScanBody(b []byte, res ScanResult) []byte {
	b = append(b, `{"count":`...)
	b = strconv.AppendInt(b, int64(res.Count), 10)
	b = append(b, `,"rows":[`...)
	for i, r := range res.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(r), 10)
	}
	b = append(b, `],"shard":`...)
	b = strconv.AppendInt(b, int64(res.Shard), 10)
	b = append(b, `,"truncated":`...)
	b = strconv.AppendBool(b, res.Truncated)
	return append(b, "}\n"...)
}

// parseScanBody reads a body of exactly the shape appendScanBody writes, in
// one pass; any other body is errScanBody. Rows is never nil.
func parseScanBody(body []byte) (ScanResult, error) {
	p := scanParser{b: body}
	var res ScanResult
	p.lit(`{"count":`)
	res.Count = p.int()
	p.lit(`,"rows":[`)
	// Each row takes at least two bytes ("0,"), which bounds what a bogus
	// count can make this allocate.
	res.Rows = make([]int, 0, min(max(res.Count, 0), MaxScanRows, len(body)/2))
	if !p.next(']') {
		for {
			res.Rows = append(res.Rows, p.int())
			if !p.next(',') {
				break
			}
		}
		p.lit("]")
	}
	p.lit(`,"shard":`)
	res.Shard = p.int()
	p.lit(`,"truncated":`)
	if res.Truncated = p.next('t'); res.Truncated {
		p.lit("rue")
	} else {
		p.lit("false")
	}
	p.lit("}\n")
	if p.bad || p.i != len(body) {
		return ScanResult{}, errScanBody
	}
	return res, nil
}

// scanParser walks a scan body; the first mismatch sets bad, after which
// every step is a no-op.
type scanParser struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes s.
func (p *scanParser) lit(s string) {
	if !p.bad && len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
	} else {
		p.bad = true
	}
}

// next consumes c if it comes next.
func (p *scanParser) next(c byte) bool {
	if !p.bad && p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// int consumes a JSON integer that fits an int: an optional minus sign,
// then 0 or digits without a leading zero.
func (p *scanParser) int() int {
	if p.bad {
		return 0
	}
	b, i := p.b, p.i
	neg := i < len(b) && b[i] == '-'
	limit := uint64(math.MaxInt)
	if neg {
		i++
		limit++
	}
	start := i
	var u uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	// 19 digits cannot wrap a uint64; more cannot fit an int.
	if n := i - start; n == 0 || n > 19 || (n > 1 && b[start] == '0') || u > limit {
		p.bad = true
		return 0
	}
	p.i = i
	if neg {
		u = -u
	}
	return int(u)
}
