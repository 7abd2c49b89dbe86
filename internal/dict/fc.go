package dict

import (
	"encoding/binary"

	"strdict/internal/bits"
)

// fcMode distinguishes the three front-coding layouts of the paper.
type fcMode int

const (
	// fcModePrev is classic Front Coding: each string stores the length of
	// the prefix it shares with its predecessor, prefix lengths live in a
	// block header.
	fcModePrev fcMode = iota
	// fcModeFirst is "Front Coding with Difference to First" (fc block df):
	// suffixes differ from the block's first string, and the header stores
	// suffix offsets so extraction is two copies with no intermediate
	// decoding — a little bigger, a little faster.
	fcModeFirst
	// fcModeInline is "Inline Front Coding" (fc inline): prefix lengths are
	// interleaved with the suffix data to improve sequential access.
	fcModeInline
)

// fcDict is the front-coding dictionary class: strings are grouped into
// fixed-size blocks, and within a block only the difference to the previous
// (or first) string is stored. The stored parts (block-first strings and
// suffixes) are compressed with the format's string scheme.
type fcDict struct {
	format    Format
	mode      fcMode
	blockSize int
	n         int
	data      []byte
	blockPtrs *bits.PackedArray // nblocks+1 offsets into data
	c         codec
}

func newFCDict(f Format, mode fcMode, strs []string, blockSize int) *fcDict {
	n := len(strs)
	nblocks := (n + blockSize - 1) / blockSize

	// Collect the parts that will actually be stored, in layout order:
	// per block, the first string followed by the suffixes.
	parts := make([][]byte, 0, n)
	plens := make([]byte, 0, n) // per non-first string
	for b := 0; b < nblocks; b++ {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		parts = append(parts, []byte(strs[lo]))
		for i := lo + 1; i < hi; i++ {
			ref := strs[i-1]
			if mode == fcModeFirst {
				ref = strs[lo]
			}
			pl := commonPrefixLen(ref, strs[i])
			plens = append(plens, byte(pl))
			parts = append(parts, []byte(strs[i][pl:]))
		}
	}

	c, encs := buildCodec(f.Scheme(), parts, false)

	d := &fcDict{format: f, mode: mode, blockSize: blockSize, n: n, c: c}
	blockOffs := make([]uint64, nblocks+1)
	ei := 0 // index into encs
	pi := 0 // index into plens
	for b := 0; b < nblocks; b++ {
		blockOffs[b] = uint64(len(d.data))
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		k := hi - lo
		first := encs[ei]
		suffixes := encs[ei+1 : ei+k]
		bplens := plens[pi : pi+k-1]
		ei += k
		pi += k - 1

		switch mode {
		case fcModePrev:
			// [plen × (k-1)] [enc(first)] [enc(suffix)...]
			d.data = append(d.data, bplens...)
			d.data = append(d.data, first...)
			for _, s := range suffixes {
				d.data = append(d.data, s...)
			}
		case fcModeFirst:
			// [firstLen u32] [plen × (k-1)] [suffix end offsets u32 × (k-1)]
			// [enc(first)] [enc(suffix)...]
			var hdr [4]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(first)))
			d.data = append(d.data, hdr[:]...)
			d.data = append(d.data, bplens...)
			end := uint32(0)
			for _, s := range suffixes {
				end += uint32(len(s))
				binary.LittleEndian.PutUint32(hdr[:], end)
				d.data = append(d.data, hdr[:]...)
			}
			d.data = append(d.data, first...)
			for _, s := range suffixes {
				d.data = append(d.data, s...)
			}
		case fcModeInline:
			// [enc(first)] ([plen u8] [enc(suffix)])...
			d.data = append(d.data, first...)
			for j, s := range suffixes {
				d.data = append(d.data, bplens[j])
				d.data = append(d.data, s...)
			}
		}
	}
	blockOffs[nblocks] = uint64(len(d.data))
	d.blockPtrs = bits.PackSlice(blockOffs)
	return d
}

// header returns where a block whose data starts at p and which holds k
// strings keeps its parts (newFCDict writes the three layouts): its prefix
// lengths (prev, df), its suffix-end table (df), and its first string's
// encoding, which ends at firstEnd. Only df stores that length; the other
// encodings end at their terminator, so their firstEnd is the data's end.
// walk and validate both read blocks through it.
func (d *fcDict) header(p, k int) (plens, ends, payload, firstEnd int) {
	plens, payload, firstEnd = p, p, len(d.data)
	switch d.mode {
	case fcModePrev:
		payload += k - 1
	case fcModeFirst:
		plens += 4
		ends = plens + k - 1
		payload = ends + 4*(k-1)
		if p+4 <= len(d.data) { // else validate rejects the block: its header does not fit
			firstEnd = payload + int(binary.LittleEndian.Uint32(d.data[p:]))
		}
	}
	return plens, ends, payload, firstEnd
}

// walk is the one front-coding reader: it seeks block b, decoding its first
// string, then advances to string n (or the block's last), each string
// decoded once and from the one before. It decodes into buf from its start,
// each string replacing the one before, and returns the buffer holding the
// last. A non-nil visit sees every string and ends the walk by returning
// false; more is false when it did, or when a corrupt stream ran off the data.
//
// Corrupt (deserialized) blocks stay safe to read: a header prefix length is
// clamped to the string it is copied from, and a stream that runs off the data
// stops decoding and leaves the current string as it is.
func (d *fcDict) walk(buf []byte, b, n int, visit func(id uint32, value []byte) bool) (_ []byte, more bool) {
	lo := b * d.blockSize
	k := min(d.blockSize, d.n-lo)
	plens, ends, payload, firstEnd := d.header(int(d.blockPtrs.Get(b)), k)
	data, dc := d.data, d.c
	dst, used := dc.decodeNext(buf[:0], data[payload:firstEnd])
	if visit != nil && !visit(uint32(lo), dst) {
		return dst, false
	}
	pos, firstLen := payload+used, len(dst)
	i, end := 0, min(n, k-1)
	switch d.mode {
	case fcModePrev:
		plens := data[plens : plens+k-1]
		for i < end {
			pl := int(plens[i])
			i++
			dst = dst[:min(pl, len(dst))]
			dst, used = dc.decodeNext(dst, data[pos:])
			pos += used
			if visit != nil && !visit(uint32(lo+i), dst) {
				return dst, false
			}
		}
	case fcModeFirst:
		// In sorted input the prefix a string shares with its block's first
		// string never grows along the block (validate rejects a block where
		// it does), so the current string always starts with the next one's
		// prefix. With nobody visiting the strings in between, one step
		// jumps straight to string n through the suffix-end table.
		plens := data[plens : plens+k-1]
		for i < end {
			if i++; visit == nil {
				i = end
			}
			dst = dst[:min(int(plens[i-1]), firstLen)]
			start := 0
			if i > 1 {
				start = int(binary.LittleEndian.Uint32(data[ends+4*(i-2):]))
			}
			if off := firstEnd + start; off <= len(data) {
				dst, _ = dc.decodeNext(dst, data[off:])
			}
			if visit != nil && !visit(uint32(lo+i), dst) {
				return dst, false
			}
		}
	default: // fcModeInline
		for i < end {
			if pos >= len(data) {
				return dst, false
			}
			pl := int(data[pos])
			i++
			dst = dst[:min(pl, len(dst))]
			dst, used = dc.decodeNext(dst, data[pos+1:])
			pos += 1 + used
			if visit != nil && !visit(uint32(lo+i), dst) {
				return dst, false
			}
		}
	}
	return dst, true
}

func (d *fcDict) Extract(id uint32) string {
	return string(d.AppendExtract(nil, id))
}

func (d *fcDict) AppendExtract(dst []byte, id uint32) []byte {
	if int(id) >= d.n {
		panic("dict: value ID out of range")
	}
	// walk decodes from the start of its buffer, which keeps the offset out
	// of every step of a ForEach: give it dst's spare capacity.
	s, _ := d.walk(dst[len(dst):], int(id)/d.blockSize, int(id)%d.blockSize, nil)
	switch {
	case len(dst) == 0:
		return s
	case cap(s) == cap(dst)-len(dst): // s is in place after dst's bytes
		return dst[:len(dst)+len(s)]
	default: // s outgrew dst's spare capacity
		return append(dst, s...)
	}
}

// ForEach walks every block once: k decodes per block, where repeated
// Extract calls would re-walk the block from its head for every entry.
func (d *fcDict) ForEach(fn func(id uint32, value []byte) bool) {
	var buf []byte
	for b := 0; b*d.blockSize < d.n; b++ {
		var more bool
		if buf, more = d.walk(buf, b, d.blockSize, fn); !more {
			return
		}
	}
}

func (d *fcDict) Locate(s string) (uint32, bool) { return fcLocate(d, s) }

// LocateBytes is the byte-slice probe path: block firsts and in-block
// strings are compared against the probe bytes directly, with no string
// conversion.
func (d *fcDict) LocateBytes(s []byte) (uint32, bool) { return fcLocate(d, s) }

func fcLocate[S ~string | ~[]byte](d *fcDict, s S) (uint32, bool) {
	if d.n == 0 {
		return 0, false
	}
	var buf []byte
	// Binary search for the last block whose first string is <= s.
	lo, hi := 0, (d.n-1)/d.blockSize
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if buf, _ = d.walk(buf, mid, 0, nil); cmpProbe(buf, s) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	// Walk that block up to the first string >= s. Decoding sequentially is
	// how front coding pays for its compression.
	var id uint32
	var found bool
	d.walk(buf, lo, d.blockSize, func(i uint32, value []byte) bool {
		cmp := cmpProbe(value, s)
		if id, found = i, cmp == 0; cmp < 0 {
			id++ // every string so far is smaller: s belongs after them
		}
		return cmp < 0
	})
	return id, found
}

func (d *fcDict) Len() int       { return d.n }
func (d *fcDict) Format() Format { return d.format }

func (d *fcDict) Bytes() uint64 {
	return uint64(len(d.data)) + d.blockPtrs.Bytes() + d.c.tableBytes() + arrayOverhead
}
