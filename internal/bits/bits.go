// Package bits provides bit-granular I/O and fixed-width packed integer
// arrays. It is the substrate shared by every string codec in this module
// (Huffman, Hu-Tucker, bit compression, n-gram, Re-Pair) and by the
// bit-packed column vectors of the column store.
//
// All multi-bit values are written and read MSB-first, so that the
// lexicographic order of bit streams matches the numeric order of the
// values written — a property the order-preserving codecs rely on.
package bits

import "math/bits"

// Width returns the number of bits required to represent v, with a minimum
// of 1 (a zero-width integer cannot be stored in a packed array).
func Width(v uint64) uint {
	if v == 0 {
		return 1
	}
	return uint(bits.Len64(v))
}

// Writer accumulates a bit stream MSB-first.
//
// The zero value is an empty writer ready for use.
type Writer struct {
	buf  []byte
	nbit uint64 // total bits written
}

// WriteBits appends the n low-order bits of v, most significant first.
// n must be at most 64.
func (w *Writer) WriteBits(v uint64, n uint) {
	w.buf = AppendBits(w.buf, w.nbit, v, n)
	w.nbit += uint64(n)
}

// AppendBits is WriteBits without a Writer: it appends the n low-order bits
// of v to the stream of nbit bits held in buf (whole bytes, the last one
// zero-padded) and returns the extended buffer. buf flows to the result
// only, so appending to a local array allocates nothing while it fits.
func AppendBits(buf []byte, nbit uint64, v uint64, n uint) []byte {
	if n > 64 {
		panic("bits: WriteBits width > 64")
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	for n > 0 {
		used := uint(nbit & 7)
		if used == 0 {
			buf = append(buf, 0)
		}
		free := 8 - used
		take := n
		if take > free {
			take = free
		}
		chunk := byte(v >> (n - take))
		buf[len(buf)-1] |= chunk << (free - take)
		nbit += uint64(take)
		n -= take
	}
	return buf
}

// WriteBit appends a single bit.
func (w *Writer) WriteBit(b uint) {
	w.WriteBits(uint64(b&1), 1)
}

// Align pads the stream with zero bits up to the next byte boundary.
func (w *Writer) Align() {
	if r := uint(w.nbit & 7); r != 0 {
		w.WriteBits(0, 8-r)
	}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() uint64 { return w.nbit }

// Bytes returns the underlying buffer. The final byte is zero-padded.
// The returned slice aliases the writer's storage.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset truncates the writer to empty, retaining the buffer's capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.nbit = 0
}

// Reader consumes a bit stream produced by Writer.
type Reader struct {
	buf []byte
	pos uint64 // bit position
}

// NewReader returns a Reader over buf starting at bit 0.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// NewReaderAt returns a Reader over buf starting at the given bit offset.
func NewReaderAt(buf []byte, bitOffset uint64) *Reader {
	return &Reader{buf: buf, pos: bitOffset}
}

// ReadBits reads the next n bits as an unsigned integer, MSB-first.
// Reading past the end of the buffer yields zero bits.
func (r *Reader) ReadBits(n uint) uint64 {
	if n > 64 {
		panic("bits: ReadBits width > 64")
	}
	var v uint64
	for n > 0 {
		byteIdx := r.pos >> 3
		if byteIdx >= uint64(len(r.buf)) {
			v <<= n
			r.pos += uint64(n)
			return v
		}
		used := uint(r.pos & 7)
		avail := 8 - used
		take := n
		if take > avail {
			take = avail
		}
		b := r.buf[byteIdx] >> (avail - take)
		b &= (1 << take) - 1
		v = v<<take | uint64(b)
		r.pos += uint64(take)
		n -= take
	}
	return v
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() uint {
	return uint(r.ReadBits(1))
}

// Pos returns the current bit position.
func (r *Reader) Pos() uint64 { return r.pos }

// Seek sets the current bit position.
func (r *Reader) Seek(bitOffset uint64) { r.pos = bitOffset }

// Remaining reports the number of bits left before the end of the buffer.
// It returns 0 when the position is at or past the end.
func (r *Reader) Remaining() uint64 {
	total := uint64(len(r.buf)) * 8
	if r.pos >= total {
		return 0
	}
	return total - r.pos
}

// PeekBits reads the next n bits without advancing the position.
// For n <= 24 it is a branch-light four-byte gather, sized for the decode
// lookup tables of the prefix-code codecs.
func (r *Reader) PeekBits(n uint) uint64 {
	if n <= 24 {
		byteIdx := r.pos >> 3
		off := uint(r.pos & 7)
		var v uint64
		buf := r.buf
		m := uint64(len(buf))
		for k := uint64(0); k < 4; k++ {
			v <<= 8
			if byteIdx+k < m {
				v |= uint64(buf[byteIdx+k])
			}
		}
		return (v >> (32 - off - n)) & (1<<n - 1)
	}
	pos := r.pos
	v := r.ReadBits(n)
	r.pos = pos
	return v
}

// Skip advances the position by n bits.
func (r *Reader) Skip(n uint) { r.pos += uint64(n) }

var (
	errTruncated = errorString("bits: truncated packed array")
	errCorrupt   = errorString("bits: corrupt packed array header")
)

// errorString is a tiny allocation-free error type.
type errorString string

func (e errorString) Error() string { return string(e) }
