package bits

import (
	"math/bits"
	"slices"
)

// PackedArray stores n unsigned integers of a fixed bit width contiguously.
// It backs the pointer/offset arrays of the dictionary formats and the
// code vectors of the column store, where the width is chosen as
// Width(maxValue) to minimize space.
type PackedArray struct {
	words []uint64
	width uint
	n     int
}

// NewPackedArray returns an array of n zero entries of the given width.
// width must be in [1, 64].
func NewPackedArray(n int, width uint) *PackedArray {
	if width == 0 || width > 64 {
		panic("bits: packed array width out of range [1,64]")
	}
	nbits := uint64(n) * uint64(width)
	return &PackedArray{
		words: make([]uint64, (nbits+63)/64),
		width: width,
		n:     n,
	}
}

// PackSlice packs values into a new array whose width is the minimum
// required for the largest value.
func PackSlice(values []uint64) *PackedArray {
	var max uint64
	for _, v := range values {
		if v > max {
			max = v
		}
	}
	pa := NewPackedArray(len(values), Width(max))
	for i, v := range values {
		pa.Set(i, v)
	}
	return pa
}

// Len returns the number of entries.
func (p *PackedArray) Len() int { return p.n }

// Width returns the per-entry bit width.
func (p *PackedArray) Width() uint { return p.width }

// Get returns entry i.
func (p *PackedArray) Get(i int) uint64 {
	bitPos := uint64(i) * uint64(p.width)
	word := bitPos >> 6
	off := uint(bitPos & 63)
	v := p.words[word] >> off
	if off+p.width > 64 {
		v |= p.words[word+1] << (64 - off)
	}
	if p.width < 64 {
		v &= (1 << p.width) - 1
	}
	return v
}

// Set stores v (truncated to the array width) at entry i.
func (p *PackedArray) Set(i int, v uint64) {
	if p.width < 64 {
		v &= (1 << p.width) - 1
	}
	bitPos := uint64(i) * uint64(p.width)
	word := bitPos >> 6
	off := uint(bitPos & 63)
	mask := ^uint64(0)
	if p.width < 64 {
		mask = (1 << p.width) - 1
	}
	p.words[word] = p.words[word]&^(mask<<off) | v<<off
	if off+p.width > 64 {
		spill := off + p.width - 64
		hiMask := uint64(1)<<spill - 1
		p.words[word+1] = p.words[word+1]&^hiMask | v>>(64-off)
	}
}

// Bytes returns the memory footprint of the packed data in bytes.
func (p *PackedArray) Bytes() uint64 {
	return uint64(len(p.words)) * 8
}

// AppendBinary serializes the packed array: width (1 byte), entry count
// (8 bytes little-endian), then the raw words (8 bytes each).
func (p *PackedArray) AppendBinary(dst []byte) []byte {
	dst = append(dst, byte(p.width))
	var tmp [8]byte
	putU64 := func(v uint64) {
		for i := range tmp {
			tmp[i] = byte(v >> (8 * i))
		}
		dst = append(dst, tmp[:]...)
	}
	putU64(uint64(p.n))
	for _, w := range p.words {
		putU64(w)
	}
	return dst
}

// fieldMask returns the mask selecting the low width bits.
func fieldMask(width uint) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return 1<<width - 1
}

// checkRange panics unless [start, start+n) is a valid entry range. n == 0
// ranges are valid at any start within [0, Len].
func (p *PackedArray) checkRange(start, n int) {
	if start < 0 || n < 0 || start > p.n-n {
		panic("bits: packed array range out of bounds")
	}
}

// AppendRange appends entries [start, start+n) to dst and returns the
// extended slice. It is the bulk form of Get (Gather with no table): the
// word arithmetic stays in registers across entries instead of being
// re-derived per call, so batch unpacking (64-256 entries at a time) runs
// several times faster than a Get-per-element loop.
func (p *PackedArray) AppendRange(dst []uint64, start, n int) []uint64 {
	p.checkRange(start, n)
	m := len(dst)
	dst = slices.Grow(dst, n)[:m+n]
	Gather(p, start, nil, dst[m:])
	return dst
}

// Code is an integer type a packed code vector decodes into: a value ID,
// a row number, or the raw entry.
type Code interface{ int32 | uint32 | uint64 }

// Gather sets out[i] = table[p.Get(start+i)] for every i < len(out), or
// p.Get(start+i) itself when table is nil: unpack and lookup in one loop
// over the words, with no intermediate buffer. A packed code vector gathers
// value IDs or join rows this way.
func Gather[T Code](p *PackedArray, start int, table []T, out []T) {
	p.checkRange(start, len(out))
	width, mask, words := uint64(p.width), fieldMask(p.width), p.words
	bitPos := uint64(start) * width
	// Two copies of the loop: with the nil test hoisted, the table's
	// registers are not live in the one that has none.
	if table == nil {
		for i := range out {
			word, off := bitPos>>6, bitPos&63
			x := words[word] >> off
			if off+width > 64 {
				x |= words[word+1] << (64 - off)
			}
			out[i] = T(x & mask)
			bitPos += width
		}
		return
	}
	for i := range out {
		word, off := bitPos>>6, bitPos&63
		x := words[word] >> off
		if off+width > 64 {
			x |= words[word+1] << (64 - off)
		}
		out[i] = table[x&mask]
		bitPos += width
	}
}

// Lookup returns table[x], or x itself when table is nil.
func Lookup[T Code](table []T, x uint64) T {
	if table == nil {
		return T(x)
	}
	return table[x]
}

// swarAligned reports whether the word-at-a-time match kernels apply: the
// width must tile 64-bit words exactly, so that no entry straddles a word
// boundary and a whole word of entries can be tested with a handful of ALU
// ops (SWAR — SIMD within a register).
func (p *PackedArray) swarAligned() bool { return 64%p.width == 0 }

// swarConsts builds the per-word SWAR constants for the array's width:
// code broadcast to every field, the per-field high bit H, and the
// per-field low mask L = H-1.
func (p *PackedArray) swarConsts(code uint64) (bcast, h, l uint64) {
	w := p.width
	hbit := uint64(1) << (w - 1)
	lmask := hbit - 1
	for sh := uint(0); sh < 64; sh += w {
		bcast |= code << sh
		h |= hbit << sh
		l |= lmask << sh
	}
	return bcast, h, l
}

// swarFieldClip clears the match bits of fields outside the within-word
// field range [a, b). m holds one H bit per matching field.
func swarFieldClip(m uint64, a, b int, w uint) uint64 {
	if a > 0 {
		m &^= 1<<(uint(a)*w) - 1
	}
	if uint(b)*w < 64 {
		m &= 1<<(uint(b)*w) - 1
	}
	return m
}

// AppendMatchEq appends base+i for every entry i in [start, start+n) whose
// value equals code, in ascending order. When the width tiles 64-bit words
// the scan runs word-at-a-time: XOR against the broadcast code turns
// equality into per-field zero detection, resolved for all fields of a word
// with four ALU ops. Other widths batch-unpack into a small stack buffer
// and compare.
func (p *PackedArray) AppendMatchEq(dst []int, base, start, n int, code uint64) []int {
	p.checkRange(start, n)
	if n == 0 || code&^fieldMask(p.width) != 0 {
		return dst // a code wider than the entries can never match
	}
	if !p.swarAligned() {
		return p.appendMatchEqUnpack(dst, base, start, n, code)
	}
	w := p.width
	per := int(64 / w)
	bcast, h, l := p.swarConsts(code)
	words := p.words
	for wi := start / per; wi*per < start+n; wi++ {
		x := words[wi] ^ bcast
		// High bit of each field of t is set iff the field is non-zero;
		// (x&L)+L cannot carry across fields since both addends fit w-1 bits.
		t := ((x & l) + l) | x
		m := ^t & h
		if m == 0 {
			continue
		}
		lo := wi * per
		a, b := 0, per
		if lo < start {
			a = start - lo
		}
		if lo+per > start+n {
			b = start + n - lo
		}
		m = swarFieldClip(m, a, b, w)
		for ; m != 0; m &= m - 1 {
			f := bits.TrailingZeros64(m) / int(w)
			dst = append(dst, base+lo+f)
		}
	}
	return dst
}

// matchChunk is the stack-buffer size of the unpack-then-compare fallbacks.
const matchChunk = 256

// appendMatchEqUnpack is the batch-unpack-then-compare equality fallback for
// widths whose entries straddle word boundaries.
func (p *PackedArray) appendMatchEqUnpack(dst []int, base, start, n int, code uint64) []int {
	var buf [matchChunk]uint64
	for o := 0; o < n; o += matchChunk {
		for j, x := range p.AppendRange(buf[:0], start+o, min(matchChunk, n-o)) {
			if x == code {
				dst = append(dst, base+start+o+j)
			}
		}
	}
	return dst
}

// CountEq returns the number of entries in [start, start+n) equal to code.
// Word-tiling widths count with one popcount per word.
func (p *PackedArray) CountEq(start, n int, code uint64) int {
	p.checkRange(start, n)
	if n == 0 || code&^fieldMask(p.width) != 0 {
		return 0
	}
	if !p.swarAligned() {
		var buf [matchChunk]uint64
		count := 0
		for o := 0; o < n; o += matchChunk {
			for _, x := range p.AppendRange(buf[:0], start+o, min(matchChunk, n-o)) {
				if x == code {
					count++
				}
			}
		}
		return count
	}
	w := p.width
	per := int(64 / w)
	bcast, h, l := p.swarConsts(code)
	words := p.words
	count := 0
	for wi := start / per; wi*per < start+n; wi++ {
		x := words[wi] ^ bcast
		t := ((x & l) + l) | x
		m := ^t & h
		if m == 0 {
			continue
		}
		lo := wi * per
		a, b := 0, per
		if lo < start {
			a = start - lo
		}
		if lo+per > start+n {
			b = start + n - lo
		}
		count += bits.OnesCount64(swarFieldClip(m, a, b, w))
	}
	return count
}

// AppendMatchRange appends base+i for every entry i in [start, start+n)
// with lo <= value < hi, in ascending order, by batch-unpacking into a
// stack buffer and comparing.
func (p *PackedArray) AppendMatchRange(dst []int, base, start, n int, lo, hi uint64) []int {
	p.checkRange(start, n)
	if n == 0 || lo >= hi {
		return dst
	}
	var buf [matchChunk]uint64
	for o := 0; o < n; o += matchChunk {
		for j, x := range p.AppendRange(buf[:0], start+o, min(matchChunk, n-o)) {
			if lo <= x && x < hi {
				dst = append(dst, base+start+o+j)
			}
		}
	}
	return dst
}

// UnmarshalPackedArray parses an array serialized by AppendBinary and
// returns it together with the number of bytes consumed.
func UnmarshalPackedArray(b []byte) (*PackedArray, int, error) {
	if len(b) < 9 {
		return nil, 0, errTruncated
	}
	width := uint(b[0])
	if width == 0 || width > 64 {
		return nil, 0, errCorrupt
	}
	getU64 := func(off int) uint64 {
		var v uint64
		for i := 0; i < 8; i++ {
			v |= uint64(b[off+i]) << (8 * i)
		}
		return v
	}
	n := getU64(1)
	const maxEntries = 1 << 40 // 1T entries: far beyond anything real
	if n > maxEntries {
		return nil, 0, errCorrupt
	}
	words := (n*uint64(width) + 63) / 64
	need := 9 + int(words)*8
	if len(b) < need {
		return nil, 0, errTruncated
	}
	p := &PackedArray{width: width, n: int(n), words: make([]uint64, words)}
	for i := range p.words {
		p.words[i] = getU64(9 + i*8)
	}
	return p, need, nil
}
