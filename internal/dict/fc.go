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

// blockBounds returns the index range [lo, hi) of block b.
func (d *fcDict) blockBounds(b int) (lo, hi int) {
	lo = b * d.blockSize
	hi = lo + d.blockSize
	if hi > d.n {
		hi = d.n
	}
	return lo, hi
}

func (d *fcDict) Extract(id uint32) string {
	return string(d.AppendExtract(nil, id))
}

func (d *fcDict) AppendExtract(dst []byte, id uint32) []byte {
	if int(id) >= d.n {
		panic("dict: value ID out of range")
	}
	return d.extractInBlock(dst, int(id)/d.blockSize, int(id)%d.blockSize)
}

// extractInBlock appends string number i of block b to dst.
func (d *fcDict) extractInBlock(dst []byte, b, i int) []byte {
	lo, hi := d.blockBounds(b)
	k := hi - lo
	p := int(d.blockPtrs.Get(b))
	base := len(dst)

	// clampPrefix bounds a header prefix length by the previously decoded
	// string, so corrupted (deserialized) headers cannot over-extend dst.
	clampPrefix := func(pl int, dst []byte) int {
		if max := len(dst) - base; pl > max {
			return max
		}
		return pl
	}

	switch d.mode {
	case fcModePrev:
		hdr := d.data[p : p+k-1]
		pos := p + k - 1
		var used int
		dst, used = d.c.decodeNext(dst, d.data[pos:])
		pos += used
		for j := 1; j <= i; j++ {
			pl := clampPrefix(int(hdr[j-1]), dst)
			dst = dst[:base+pl]
			dst, used = d.c.decodeNext(dst, d.data[pos:])
			pos += used
		}
		return dst

	case fcModeFirst:
		firstLen := int(binary.LittleEndian.Uint32(d.data[p:]))
		plens := d.data[p+4 : p+4+k-1]
		endsOff := p + 4 + (k - 1)
		payload := endsOff + 4*(k-1)
		dst, _ = d.c.decodeNext(dst, d.data[payload:payload+firstLen])
		if i == 0 {
			return dst
		}
		suffArea := payload + firstLen
		start := 0
		if i > 1 {
			start = int(binary.LittleEndian.Uint32(d.data[endsOff+4*(i-2):]))
		}
		pl := clampPrefix(int(plens[i-1]), dst)
		dst = dst[:base+pl]
		if off := suffArea + start; off >= 0 && off <= len(d.data) {
			dst, _ = d.c.decodeNext(dst, d.data[off:])
		}
		return dst

	default: // fcModeInline
		pos := p
		var used int
		dst, used = d.c.decodeNext(dst, d.data[pos:])
		pos += used
		for j := 1; j <= i; j++ {
			if pos >= len(d.data) {
				return dst // corrupt stream ran off the data area
			}
			pl := clampPrefix(int(d.data[pos]), dst)
			pos++
			dst = dst[:base+pl]
			dst, used = d.c.decodeNext(dst, d.data[pos:])
			pos += used
		}
		return dst
	}
}

// firstOfBlock appends the first string of block b to dst.
func (d *fcDict) firstOfBlock(dst []byte, b int) []byte {
	lo, hi := d.blockBounds(b)
	k := hi - lo
	p := int(d.blockPtrs.Get(b))
	switch d.mode {
	case fcModePrev:
		out, _ := d.c.decodeNext(dst, d.data[p+k-1:])
		return out
	case fcModeFirst:
		firstLen := int(binary.LittleEndian.Uint32(d.data[p:]))
		payload := p + 4 + (k-1)*5
		out, _ := d.c.decodeNext(dst, d.data[payload:payload+firstLen])
		return out
	default:
		out, _ := d.c.decodeNext(dst, d.data[p:])
		return out
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
	// Binary search for the last block whose first string is <= s.
	nblocks := (d.n + d.blockSize - 1) / d.blockSize
	var buf []byte
	lo, hi := 0, nblocks-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		buf = d.firstOfBlock(buf[:0], mid)
		if cmpProbe(buf, s) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	b := lo
	buf = d.firstOfBlock(buf[:0], b)
	if b == 0 && cmpProbe(buf, s) > 0 {
		return 0, false
	}
	// Walk the block. Decoding sequentially is how front coding pays for
	// its compression.
	blo, bhi := d.blockBounds(b)
	k := bhi - blo
	for i := 0; i < k; i++ {
		buf = d.extractInBlock(buf[:0], b, i)
		switch c := cmpProbe(buf, s); {
		case c == 0:
			return uint32(blo + i), true
		case c > 0:
			return uint32(blo + i), false
		}
	}
	return uint32(bhi), false
}

func (d *fcDict) Len() int       { return d.n }
func (d *fcDict) Format() Format { return d.format }

func (d *fcDict) Bytes() uint64 {
	return uint64(len(d.data)) + d.blockPtrs.Bytes() + d.c.tableBytes() + arrayOverhead
}
