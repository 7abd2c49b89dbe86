package intcomp

import (
	"slices"

	"strdict/internal/bits"
)

// Predicate kernels over compressed vectors: equality and range scans that
// emit matching row indices without unpacking the vector. Each vector kind
// gets the cheapest strategy its representation permits — SWAR comparison
// of a window of ⌊64/w⌋ packed entries at a time for bit-packed data, at
// every width, whole runs at a time for RLE, and per-frame base rebasing
// for FOR. The three kinds are every Vector there is (the constructors and
// Unmarshal make no other), so the kernels have no fallback. The scalar
// Get-per-element oracle they are tested against lives in kernels_test.go.

// errKind is the kernels' panic on a Vector this package did not make.
const errKind = "intcomp: unknown vector kind"

// kernelChunk is MinMax's and Counts' stack-buffer size.
const kernelChunk = 256

// ScanEq appends the index of every element in [start, start+n) equal to
// code to dst, in ascending order, and returns the extended slice.
// Out-of-range [start, start+n) panics.
func ScanEq(v Vector, code uint64, start, n int, dst []int) []int {
	checkVectorRange(v.Len(), start, n)
	if n == 0 {
		return dst
	}
	switch v := v.(type) {
	case packedVector:
		return v.pa.AppendMatchEq(dst, 0, start, n, code)
	case rleVector:
		// Whole runs match or don't: emit each matching run's clipped
		// interval without touching per-element data.
		pos, end := start, start+n
		for r := v.runAt(start); pos < end; r++ {
			re := min(v.runEnd(r), end)
			if v.values.Get(r) == code {
				for ; pos < re; pos++ {
					dst = append(dst, pos)
				}
			} else {
				pos = re
			}
		}
		return dst
	case *forVector:
		for n > 0 {
			f, fo := start/v.frameSize, start%v.frameSize
			k := min(v.frameLen(f)-fo, n)
			fb := v.bases.Get(f)
			switch {
			case code < fb:
				// Below the frame minimum: no element can match.
			case v.widths[f] == 0:
				if code == fb { // constant frame: all or nothing
					for i := 0; i < k; i++ {
						dst = append(dst, start+i)
					}
				}
			default:
				// AppendMatchEq rejects offsets wider than the frame itself.
				dst = v.offsets[f].AppendMatchEq(dst, f*v.frameSize, fo, k, code-fb)
			}
			start += k
			n -= k
		}
		return dst
	default:
		panic(errKind)
	}
}

// ScanRange appends the index of every element in [start, start+n) with
// lo <= value < hi to dst, in ascending order, and returns the extended
// slice. Out-of-range [start, start+n) panics. It mirrors ScanEq.
func ScanRange(v Vector, lo, hi uint64, start, n int, dst []int) []int {
	checkVectorRange(v.Len(), start, n)
	if n == 0 || lo >= hi {
		return dst
	}
	switch v := v.(type) {
	case packedVector:
		return v.pa.AppendMatchRange(dst, 0, start, n, lo, hi)
	case rleVector:
		pos, end := start, start+n
		for r := v.runAt(start); pos < end; r++ {
			re := min(v.runEnd(r), end)
			if x := v.values.Get(r); lo <= x && x < hi {
				for ; pos < re; pos++ {
					dst = append(dst, pos)
				}
			} else {
				pos = re
			}
		}
		return dst
	case *forVector:
		for n > 0 {
			f, fo := start/v.frameSize, start%v.frameSize
			k := min(v.frameLen(f)-fo, n)
			fb := v.bases.Get(f)
			switch {
			case hi <= fb:
				// Every frame value is >= fb, outside [lo, hi).
			case v.widths[f] == 0:
				if lo <= fb { // constant frame; hi > fb already known
					for i := 0; i < k; i++ {
						dst = append(dst, start+i)
					}
				}
			default:
				olo := uint64(0)
				if lo > fb {
					olo = lo - fb
				}
				dst = v.offsets[f].AppendMatchRange(dst, f*v.frameSize, fo, k, olo, hi-fb)
			}
			start += k
			n -= k
		}
		return dst
	default:
		panic(errKind)
	}
}

// CountEq returns the number of elements in [start, start+n) equal to code.
// Out-of-range [start, start+n) panics. It mirrors ScanEq but only counts,
// letting the packed path use one popcount per word instead of iterating
// match bits. colstore answers a main part's counts from its Counts table
// instead; this kernel stays as that table's oracle and for bench/.
func CountEq(v Vector, code uint64, start, n int) int {
	checkVectorRange(v.Len(), start, n)
	if n == 0 {
		return 0
	}
	switch v := v.(type) {
	case packedVector:
		return v.pa.CountEq(start, n, code)
	case rleVector:
		count := 0
		pos, end := start, start+n
		for r := v.runAt(start); pos < end; r++ {
			re := min(v.runEnd(r), end)
			if v.values.Get(r) == code {
				count += re - pos
			}
			pos = re
		}
		return count
	case *forVector:
		count := 0
		for n > 0 {
			f, fo := start/v.frameSize, start%v.frameSize
			k := min(v.frameLen(f)-fo, n)
			fb := v.bases.Get(f)
			switch {
			case code < fb:
			case v.widths[f] == 0:
				if code == fb {
					count += k
				}
			default:
				count += v.offsets[f].CountEq(fo, k, code-fb)
			}
			start += k
			n -= k
		}
		return count
	default:
		panic(errKind)
	}
}

// Counts returns, for every code below domain, the number of elements of v
// equal to it, packed by PackAuto: a main part's per-value-ID row counts,
// from one windowed Gather pass. A code at or above domain panics.
func Counts(v Vector, domain int) Vector {
	tally := make([]uint64, domain)
	var buf [kernelChunk]uint64
	for o := 0; o < v.Len(); o += kernelChunk {
		w := buf[:min(kernelChunk, v.Len()-o)]
		Gather(v, o, nil, w)
		for _, x := range w {
			tally[x]++
		}
	}
	return PackAuto(tally)
}

// runBatch is the number of RLE runs whose starts and values Gather
// unpacks at a time.
const runBatch = 64

// Gather sets out[i] = table[v.Get(start+i)] for every i < len(out), or
// v.Get(start+i) itself when table is nil — a column's value IDs, or its
// rows of a join through a map from value ID to key row. Each vector kind
// decodes and looks up in one loop with no intermediate buffer: bit-packed
// entries and FOR offsets unpack straight into the lookup, and RLE looks up
// once per run and fills the run.
// Every AppendRange is Gather with a nil table (appendGather).
// Out-of-range [start, start+len(out)) panics.
func Gather[T bits.Code](v Vector, start int, table []T, out []T) {
	checkVectorRange(v.Len(), start, len(out))
	switch v := v.(type) {
	case packedVector:
		bits.Gather(v.pa, start, table, out)
	case rleVector:
		// Run ends and values unpack runBatch runs at a time. A run of up
		// to 8 elements is one fixed 8-wide store; what it writes past the
		// run's end lies inside out, where the runs after it overwrite it.
		var ends, vals [runBatch]uint64
		nr, pos := v.starts.Len(), 0
		for r := v.runAt(start); pos < len(out); r += runBatch {
			k := min(runBatch, nr-r)
			bits.Gather(v.values, r, nil, vals[:k])
			bits.Gather(v.starts, r+1, nil, ends[:min(k, nr-r-1)])
			if r+k == nr {
				ends[k-1] = uint64(v.n)
			}
			for j, x := range vals[:k] {
				val, end := bits.Lookup(table, x), min(int(ends[j])-start, len(out))
				for ; pos < end && pos+8 <= len(out); pos += 8 {
					o := (*[8]T)(out[pos:])
					o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = val, val, val, val, val, val, val, val
				}
				for ; pos < end; pos++ {
					out[pos] = val
				}
				if pos = end; pos == len(out) {
					break
				}
			}
		}
	case *forVector:
		for pos := 0; pos < len(out); {
			f, fo := (start+pos)/v.frameSize, (start+pos)%v.frameSize
			k := min(v.frameLen(f)-fo, len(out)-pos)
			base, frame := v.bases.Get(f), out[pos:pos+k]
			switch {
			case v.widths[f] == 0:
				x := bits.Lookup(table, base)
				for i := range frame {
					frame[i] = x
				}
			case table != nil:
				bits.Gather(v.offsets[f], fo, table[base:], frame)
			default:
				bits.Gather[T](v.offsets[f], fo, nil, frame)
				for i := range frame {
					frame[i] += T(base)
				}
			}
			pos += k
		}
	default:
		panic(errKind)
	}
}

// appendGather is AppendRange through Gather: it decodes [start, start+n)
// onto the end of dst.
func appendGather(v Vector, dst []uint64, start, n int) []uint64 {
	checkVectorRange(v.Len(), start, n)
	m := len(dst)
	dst = slices.Grow(dst, n)[:m+n]
	Gather(v, start, nil, dst[m:])
	return dst
}

// MinMax returns the minimum and maximum element of [start, start+n).
// n must be positive; out-of-range panics. It backs recovery's check that
// every code of a loaded vector indexes into its dictionary.
func MinMax(v Vector, start, n int) (lo, hi uint64) {
	checkVectorRange(v.Len(), start, n)
	if n <= 0 {
		panic("intcomp: MinMax of empty range")
	}
	lo, hi = v.Get(start), v.Get(start)
	var buf [kernelChunk]uint64
	for o := 0; o < n; o += kernelChunk {
		for _, x := range v.AppendRange(buf[:0], start+o, min(kernelChunk, n-o)) {
			lo, hi = min(lo, x), max(hi, x)
		}
	}
	return lo, hi
}
