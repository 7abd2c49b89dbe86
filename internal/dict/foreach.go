package dict

import (
	"encoding/binary"

	"strdict/internal/bits"
)

// ForEach visits the array dictionary sequentially: one decode per entry.
func (d *arrayDict) ForEach(fn func(id uint32, value []byte) bool) {
	var buf []byte
	for id := 0; id < d.n; id++ {
		buf, _ = d.c.decodeNext(buf[:0], d.encoded(uint32(id)))
		if !fn(uint32(id), buf) {
			return
		}
	}
}

// ForEach visits the fixed-slot dictionary sequentially.
func (d *arrayFixed) ForEach(fn func(id uint32, value []byte) bool) {
	var buf []byte
	for id := 0; id < d.n; id++ {
		buf = d.AppendExtract(buf[:0], uint32(id))
		if !fn(uint32(id), buf) {
			return
		}
	}
}

// ForEach walks every front-coding block once, reconstructing each string
// incrementally from its predecessor — O(total suffix bytes) instead of the
// O(blockSize) re-walk per entry that repeated Extract calls would pay.
func (d *fcDict) ForEach(fn func(id uint32, value []byte) bool) {
	nblocks := (d.n + d.blockSize - 1) / d.blockSize
	var buf []byte
	for b := 0; b < nblocks; b++ {
		lo, hi := d.blockBounds(b)
		k := hi - lo
		p := int(d.blockPtrs.Get(b))
		switch d.mode {
		case fcModePrev:
			hdr := d.data[p : p+k-1]
			pos := p + k - 1
			var used int
			buf, used = d.c.decodeNext(buf[:0], d.data[pos:])
			pos += used
			if !fn(uint32(lo), buf) {
				return
			}
			for j := 1; j < k; j++ {
				pl := int(hdr[j-1])
				if pl > len(buf) {
					pl = len(buf)
				}
				buf = buf[:pl]
				buf, used = d.c.decodeNext(buf, d.data[pos:])
				pos += used
				if !fn(uint32(lo+j), buf) {
					return
				}
			}
		case fcModeFirst:
			firstLen := int(binary.LittleEndian.Uint32(d.data[p:]))
			plens := d.data[p+4 : p+4+k-1]
			payload := p + 4 + (k-1)*5
			buf, _ = d.c.decodeNext(buf[:0], d.data[payload:payload+firstLen])
			first := append([]byte(nil), buf...)
			if !fn(uint32(lo), buf) {
				return
			}
			pos := payload + firstLen
			var used int
			for j := 1; j < k; j++ {
				pl := int(plens[j-1])
				if pl > len(first) {
					pl = len(first)
				}
				buf = append(buf[:0], first[:pl]...)
				buf, used = d.c.decodeNext(buf, d.data[pos:])
				pos += used
				if !fn(uint32(lo+j), buf) {
					return
				}
			}
		default: // fcModeInline
			pos := p
			var used int
			buf, used = d.c.decodeNext(buf[:0], d.data[pos:])
			pos += used
			if !fn(uint32(lo), buf) {
				return
			}
			for j := 1; j < k; j++ {
				if pos >= len(d.data) {
					return // corrupt stream ran off the data area
				}
				pl := int(d.data[pos])
				pos++
				if pl > len(buf) {
					pl = len(buf)
				}
				buf = buf[:pl]
				buf, used = d.c.decodeNext(buf, d.data[pos:])
				pos += used
				if !fn(uint32(lo+j), buf) {
					return
				}
			}
		}
	}
}

// ForEach materializes each column-bc block once (k×m character walk) and
// yields its strings, instead of re-walking the column headers per entry.
func (d *columnBC) ForEach(fn func(id uint32, value []byte) bool) {
	nblocks := (d.n + d.blockSize - 1) / d.blockSize
	for b := 0; b < nblocks; b++ {
		lo := b * d.blockSize
		hi := lo + d.blockSize
		if hi > d.n {
			hi = d.n
		}
		k := hi - lo
		p := int(d.blockPtrs.Get(b))
		m := int(binary.LittleEndian.Uint16(d.data[p+2:]))

		strs := make([][]byte, k)
		pos := p + 4
		for j := 0; j < m; j++ {
			asize := int(binary.LittleEndian.Uint16(d.data[pos:]))
			pos += 2
			alpha := d.data[pos : pos+asize]
			pos += asize
			if asize == 1 {
				if alpha[0] != 0 {
					for i := 0; i < k; i++ {
						strs[i] = append(strs[i], alpha[0])
					}
				}
				continue
			}
			width := bits.Width(uint64(asize - 1))
			packedBytes := (k*int(width) + 7) / 8
			r := bits.NewReader(d.data[pos : pos+packedBytes])
			pos += packedBytes
			for i := 0; i < k; i++ {
				code := r.ReadBits(width)
				if code >= uint64(asize) {
					continue
				}
				if c := alpha[code]; c != 0 {
					strs[i] = append(strs[i], c)
				}
			}
		}
		for i := 0; i < k; i++ {
			if !fn(uint32(lo+i), strs[i]) {
				return
			}
		}
	}
}

// ForEach visits the hash baseline sequentially.
func (d *HashDict) ForEach(fn func(id uint32, value []byte) bool) {
	var buf []byte
	for id := 0; id < d.n; id++ {
		buf = d.AppendExtract(buf[:0], uint32(id))
		if !fn(uint32(id), buf) {
			return
		}
	}
}
