package dict

import (
	"encoding/binary"

	"strdict/internal/bits"
)

// forEachByExtract is the sequential walk of the formats whose extract costs
// the same at any position: one AppendExtract per entry into a reused buffer.
func forEachByExtract(d interface{ AppendExtract([]byte, uint32) []byte }, n int, fn func(id uint32, value []byte) bool) {
	var buf []byte
	for id := 0; id < n; id++ {
		buf = d.AppendExtract(buf[:0], uint32(id))
		if !fn(uint32(id), buf) {
			return
		}
	}
}

func (d *arrayDict) ForEach(fn func(id uint32, value []byte) bool)  { forEachByExtract(d, d.n, fn) }
func (d *arrayFixed) ForEach(fn func(id uint32, value []byte) bool) { forEachByExtract(d, d.n, fn) }
func (d *HashDict) ForEach(fn func(id uint32, value []byte) bool)   { forEachByExtract(d, d.n, fn) }

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
