// Package intcomp provides lightweight integer compression for the code
// vectors produced by domain encoding. The paper notes that "the resulting
// list of codes can be compressed further using integer compression
// schemes" (citing Abadi et al. and Lemke et al.); this package implements
// three, the Vector kinds that matter for in-memory column stores with
// random access:
//
//   - bit packing (null suppression): every code takes exactly
//     ceil(log2(cardinality)) bits — O(1) random access;
//   - run-length encoding over the packed runs — O(log runs) random access,
//     far smaller on sorted or clustered columns (flags, statuses, dates);
//   - frame-of-reference packing — per-frame base + narrow offsets, O(1)
//     random access, strong on nearly-monotonic sequences such as key
//     columns loaded in order.
//
// PackAuto picks whichever is smallest for the column at hand, mirroring
// how the engine picks per-column vector formats. Every main part is one
// such vector, packed whole at each merge; there is no composite kind.
package intcomp

import (
	"strdict/internal/bits"
)

// Vector is a read-only compressed sequence of unsigned integers.
type Vector interface {
	// Get returns element i.
	Get(i int) uint64
	// Len returns the number of elements.
	Len() int
	// Bytes returns the in-memory footprint.
	Bytes() uint64
	// AppendRange appends elements [start, start+n) to dst and returns the
	// extended slice — the bulk-decode contract of the vectorized read
	// path, Gather with no table. It amortizes the per-element access
	// state (word cursors for bit packing, run cursors for RLE, frame bases
	// for FOR) across the whole range, so batch unpacking 64-256 elements
	// per call runs several times faster than a Get-per-element loop.
	// Out-of-range [start, start+n) panics.
	AppendRange(dst []uint64, start, n int) []uint64
}

// packedVector is fixed-width bit packing.
type packedVector struct {
	pa *bits.PackedArray
}

// PackBits bit-packs values at the minimum width for their maximum.
func PackBits(values []uint64) Vector {
	return packedVector{bits.PackSlice(values)}
}

func (v packedVector) Get(i int) uint64 { return v.pa.Get(i) }
func (v packedVector) Len() int         { return v.pa.Len() }
func (v packedVector) Bytes() uint64    { return v.pa.Bytes() + 16 }

func (v packedVector) AppendRange(dst []uint64, start, n int) []uint64 {
	return appendGather(v, dst, start, n)
}

// rleVector stores (start, value) per run; Get binary-searches the starts.
type rleVector struct {
	n      int
	starts *bits.PackedArray // run start positions, ascending
	values *bits.PackedArray // run values
}

// PackRLE run-length encodes values.
func PackRLE(values []uint64) Vector {
	var starts, vals []uint64
	for i, v := range values {
		if i == 0 || values[i-1] != v {
			starts = append(starts, uint64(i))
			vals = append(vals, v)
		}
	}
	return rleVector{
		n:      len(values),
		starts: bits.PackSlice(starts),
		values: bits.PackSlice(vals),
	}
}

func (v rleVector) Len() int { return v.n }

// runAt returns the index of the run containing element i.
func (v rleVector) runAt(i int) int {
	// Find the last run starting at or before i.
	lo, hi := 0, v.starts.Len()-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if v.starts.Get(mid) <= uint64(i) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// runEnd returns the exclusive end position of run r.
func (v rleVector) runEnd(r int) int {
	if r+1 < v.starts.Len() {
		return int(v.starts.Get(r + 1))
	}
	return v.n
}

func (v rleVector) Get(i int) uint64 {
	return v.values.Get(v.runAt(i))
}

func (v rleVector) AppendRange(dst []uint64, start, n int) []uint64 {
	return appendGather(v, dst, start, n)
}

func (v rleVector) Bytes() uint64 {
	return v.starts.Bytes() + v.values.Bytes() + 32
}

// PackAuto returns the smallest of bit packing, run-length encoding and
// frame-of-reference packing for the given values. Empty input yields an
// empty bit-packed vector.
//
// It runs on every segment seal and merge, so it does not materialize the
// three candidates: one pass over the input collects the run count, the
// global min/max and the per-frame min/max, from which each candidate's
// exact footprint follows, and only the winner is built. Ties resolve in
// the order bits, RLE, FOR — the same preference the build-all-and-compare
// implementation had.
func PackAuto(values []uint64) Vector {
	n := len(values)
	if n == 0 {
		return PackBits(values)
	}

	nframes := (n + forFrameSize - 1) / forFrameSize
	frameMin := make([]uint64, nframes)
	frameMax := make([]uint64, nframes)
	runs := 1
	lastRunStart := 0
	max := values[0]
	for f := 0; f < nframes; f++ {
		lo := f * forFrameSize
		hi := lo + forFrameSize
		if hi > n {
			hi = n
		}
		fmin, fmax := values[lo], values[lo]
		if lo > 0 && values[lo-1] != values[lo] {
			runs++
			lastRunStart = lo
		}
		for i := lo + 1; i < hi; i++ {
			v := values[i]
			if v < fmin {
				fmin = v
			}
			if v > fmax {
				fmax = v
			}
			if values[i-1] != v {
				runs++
				lastRunStart = i
			}
		}
		frameMin[f], frameMax[f] = fmin, fmax
		if fmax > max {
			max = fmax
		}
	}

	// Candidate footprints, mirroring each vector kind's Bytes() exactly.
	// The maximum run value equals the global maximum: the largest element
	// is the value of whichever run holds it.
	bitsSize := packedArrayBytes(n, bits.Width(max)) + 16
	rleSize := packedArrayBytes(runs, bits.Width(uint64(lastRunStart))) +
		packedArrayBytes(runs, bits.Width(max)) + 32
	var maxBase uint64
	for _, b := range frameMin {
		if b > maxBase {
			maxBase = b
		}
	}
	forSize := packedArrayBytes(nframes, bits.Width(maxBase)) + uint64(nframes) + 48
	for f := 0; f < nframes; f++ {
		if frameMax[f] == frameMin[f] {
			continue
		}
		flen := forFrameSize
		if (f+1)*forFrameSize > n {
			flen = n - f*forFrameSize
		}
		forSize += packedArrayBytes(flen, bits.Width(frameMax[f]-frameMin[f])) + 16
	}

	switch {
	case rleSize < bitsSize && rleSize <= forSize:
		return PackRLE(values)
	case forSize < bitsSize && forSize < rleSize:
		return PackFOR(values)
	default:
		return PackBits(values)
	}
}

// packedArrayBytes is the footprint bits.PackSlice(values).Bytes() reports
// for n entries of the given width.
func packedArrayBytes(n int, width uint) uint64 {
	return (uint64(n)*uint64(width) + 63) / 64 * 8
}

// forVector is frame-of-reference delta packing for nearly-monotonic
// sequences (key columns loaded in order): per fixed-size frame it stores a
// base value and bit-packed offsets from that base — O(1) random access
// with far fewer bits than global packing when values are clustered.
type forVector struct {
	n         int
	frameSize int
	bases     *bits.PackedArray // per frame: minimum value
	widths    []uint8           // per frame: offset width (0 = constant frame)
	offsets   []*bits.PackedArray
}

// forFrameSize balances header overhead against adaptivity.
const forFrameSize = 1024

// PackFOR frame-of-reference packs values.
func PackFOR(values []uint64) Vector {
	v := &forVector{n: len(values), frameSize: forFrameSize}
	nframes := (len(values) + forFrameSize - 1) / forFrameSize
	bases := make([]uint64, nframes)
	for f := 0; f < nframes; f++ {
		lo := f * forFrameSize
		hi := lo + forFrameSize
		if hi > len(values) {
			hi = len(values)
		}
		frame := values[lo:hi]
		min, max := frame[0], frame[0]
		for _, x := range frame[1:] {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		bases[f] = min
		if max == min {
			v.widths = append(v.widths, 0)
			v.offsets = append(v.offsets, nil)
			continue
		}
		w := bits.Width(max - min)
		v.widths = append(v.widths, uint8(w))
		pa := bits.NewPackedArray(len(frame), w)
		for i, x := range frame {
			pa.Set(i, x-min)
		}
		v.offsets = append(v.offsets, pa)
	}
	v.bases = bits.PackSlice(bases)
	return v
}

func (v *forVector) Len() int { return v.n }

func (v *forVector) Get(i int) uint64 {
	f := i / v.frameSize
	base := v.bases.Get(f)
	if v.widths[f] == 0 {
		return base
	}
	return base + v.offsets[f].Get(i%v.frameSize)
}

// frameLen returns the number of elements in frame f (the last frame may be
// short).
func (v *forVector) frameLen(f int) int {
	if (f+1)*v.frameSize <= v.n {
		return v.frameSize
	}
	return v.n - f*v.frameSize
}

func (v *forVector) AppendRange(dst []uint64, start, n int) []uint64 {
	return appendGather(v, dst, start, n)
}

// checkVectorRange panics unless [start, start+n) lies within a vector of
// the given length.
func checkVectorRange(length, start, n int) {
	if start < 0 || n < 0 || start > length-n {
		panic("intcomp: vector range out of bounds")
	}
}

func (v *forVector) Bytes() uint64 {
	b := v.bases.Bytes() + uint64(len(v.widths)) + 48
	for _, pa := range v.offsets {
		if pa != nil {
			b += pa.Bytes() + 16
		}
	}
	return b
}
