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

// The predicate kernels below test a window of k = ⌊64/w⌋ whole entries at
// once with a handful of ALU ops — SWAR, SIMD within a register: Willhalm
// et al.'s SIMD-Scan done in general-purpose registers. A window may start
// at any entry, so its k fields straddle at most two words; the stored
// layout has no spacer bits, so every trick keeps its carries and borrows
// inside a field. Fields are numbered from the low bit, so match bits
// enumerate in ascending entry order. The fewer than k entries left at the
// end of a range go through Get.

// swarConsts returns width w's window constants: the span = k·w bits of
// the k = ⌊64/w⌋ fields of a window, and the low bit (ones) and high bit
// (h) of each of those fields.
func swarConsts(w uint) (span, ones, h uint64) {
	span = 64 / uint64(w) * uint64(w)
	for sh := uint64(0); sh < span; sh += uint64(w) {
		ones |= 1 << sh
	}
	return span, ones, ones << (w - 1)
}

// window returns the entries from bit pos of words, the first span bits of
// them in its low bits. It reads the next word only when the window reaches
// into it, so it never reads past the array. The bits above span are left
// as they are: carries and borrows only run upward, out of the window, and
// the high-bit mask drops them.
func window(words []uint64, pos, span uint64) uint64 {
	i, off := pos>>6, pos&63
	x := words[i] >> off
	if off+span > 64 {
		// Shift by 64-off in two steps, each provably below 64, so that
		// the compiler adds no test for a shift by 64.
		x |= words[i+1] << 1 << (^pos & 63)
	}
	return x
}

// swarEq returns the high bit of every field of x equal to the field of c,
// for per-field high bits h and low masks l = h - ones.
func swarEq(x, c, h, l uint64) uint64 {
	y := x ^ c
	// The high bit of each field of t is set iff the field of y is
	// non-zero; (y&l)+l cannot carry across fields since both addends fit
	// w-1 bits.
	t := ((y & l) + l) | y
	return ^t & h
}

// swarGe returns the high bit of every field of x that is >= the field of
// y, unsigned. With equal high bits the answer is the high bit of
// (x|h) - (y&l), whose fields cannot borrow from their neighbours.
func swarGe(x, y, h, l uint64) uint64 {
	return ((x &^ y) | (^(x ^ y) & ((x | h) - (y & l)))) & h
}

// CountEq returns the number of entries in [start, start+n) equal to code:
// XOR against the broadcast code turns equality into per-field zero
// detection, and a popcount counts a window's matches.
func (p *PackedArray) CountEq(start, n int, code uint64) int {
	p.checkRange(start, n)
	if code > fieldMask(p.width) {
		return 0 // a code wider than the entries can never match
	}
	w := uint64(p.width)
	span, ones, h := swarConsts(p.width)
	count, pos := countEq(p.words, uint64(start)*w, uint64(start+n)*w, span, code*ones, h, h-ones)
	for i := int(pos / w); i < start+n; i++ {
		if p.Get(i) == code {
			count++
		}
	}
	return count
}

// AppendMatchEq appends base+i for every entry i in [start, start+n) whose
// value equals code, in ascending order.
func (p *PackedArray) AppendMatchEq(dst []int, base, start, n int, code uint64) []int {
	p.checkRange(start, n)
	if code > fieldMask(p.width) {
		return dst
	}
	return p.appendMatch(dst, base, start, n, code, 0, true)
}

// AppendMatchRange appends base+i for every entry i in [start, start+n)
// with lo <= value < hi, in ascending order: a field is in range when it is
// >= the broadcast lo and not >= the broadcast hi. A lo above the field
// mask matches nothing; a hi above it bounds nothing (a FOR frame's rebased
// bound, or hi == DictLen == 1<<w), so only the lower compare runs.
func (p *PackedArray) AppendMatchRange(dst []int, base, start, n int, lo, hi uint64) []int {
	p.checkRange(start, n)
	if lo >= hi || lo > fieldMask(p.width) {
		return dst
	}
	return p.appendMatch(dst, base, start, n, lo, hi, false)
}

// appendMatch appends base+i for every entry i in [start, start+n) equal to
// lo (eq) or in [lo, hi), window by window and then through Get. The high
// bit of field f sits at bit f·w + w-1 of a window, so a window at bit pos
// with match bit b holds entry (pos+b)/w.
func (p *PackedArray) appendMatch(dst []int, base, start, n int, lo, hi uint64, eq bool) []int {
	w, open := uint64(p.width), hi > fieldMask(p.width)
	span, ones, h := swarConsts(p.width)
	pos, end := uint64(start)*w, uint64(start+n)*w
	for {
		var m uint64
		if eq {
			pos, m = findEq(p.words, pos, end, span, lo*ones, h, h-ones)
		} else {
			pos, m = findRange(p.words, pos, end, span, lo*ones, hi*ones, h, h-ones, open)
		}
		if m == 0 {
			break
		}
		for ; m != 0; m &= m - 1 {
			dst = append(dst, base+int((pos+uint64(bits.TrailingZeros64(m)))/w))
		}
		pos += span
	}
	for i := int(pos / w); i < start+n; i++ {
		if x := p.Get(i); x == lo || !eq && lo < x && x < hi {
			dst = append(dst, base+i)
		}
	}
	return dst
}

// countEq, findEq and findRange run while a whole window of span bits from
// pos fits below end. They are functions of their own, and the find loops
// return to their caller at each window with a match, so that only the
// loop's own values are live across them: each one kept in a register is
// one not reloaded per window.

// countEq counts the fields equal to the broadcast c, and returns the count
// and the bit position of the first entry left over.
func countEq(words []uint64, pos, end, span, c, h, l uint64) (int, uint64) {
	count := 0
	for ; pos+span <= end; pos += span {
		if m := swarEq(window(words, pos, span), c, h, l); m != 0 {
			count += bits.OnesCount64(m)
		}
	}
	return count, pos
}

// findEq returns the bit position of the first window from pos with a
// field equal to the broadcast c, and its match bits. With no such window
// the match bits are 0 and the position is that of the first entry left
// over.
func findEq(words []uint64, pos, end, span, c, h, l uint64) (uint64, uint64) {
	for ; pos+span <= end; pos += span {
		if m := swarEq(window(words, pos, span), c, h, l); m != 0 {
			return pos, m
		}
	}
	return pos, 0
}

// findRange is findEq for the fields >= the broadcast lo and, unless open,
// not >= the broadcast hi.
func findRange(words []uint64, pos, end, span, lo, hi, h, l uint64, open bool) (uint64, uint64) {
	for ; pos+span <= end; pos += span {
		x := window(words, pos, span)
		m := swarGe(x, lo, h, l)
		if !open {
			m &^= swarGe(x, hi, h, l)
		}
		if m != 0 {
			return pos, m
		}
	}
	return pos, 0
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
