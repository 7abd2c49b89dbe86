package dict

import (
	"bytes"

	"strdict/internal/bitcomp"
	"strdict/internal/bits"
	"strdict/internal/huffman"
	"strdict/internal/hutucker"
	"strdict/internal/ngram"
	"strdict/internal/repair"
)

// Scheme enumerates the string compression schemes of Section 3.3.
type Scheme int

const (
	SchemeNone Scheme = iota
	SchemeBC
	SchemeHU
	SchemeNG2
	SchemeNG3
	SchemeRP12
	SchemeRP16
)

var schemeNames = [...]string{"none", "bc", "hu", "ng2", "ng3", "rp12", "rp16"}

// String names the scheme.
func (s Scheme) String() string {
	if s < 0 || int(s) >= len(schemeNames) {
		return "scheme?"
	}
	return schemeNames[s]
}

// codec decodes self-delimiting encoded strings. Every scheme terminates a
// string with an EOS symbol (NUL for the raw scheme), so encoded strings can
// be concatenated and walked.
type codec interface {
	// decodeNext appends the decoded form of the encoded string beginning
	// at enc[0] to dst and returns the extended slice plus the number of
	// bytes of enc the encoding occupied (encodings are byte-aligned).
	decodeNext(dst, enc []byte) ([]byte, int)
	// tableBytes is the footprint of the codec's shared tables.
	tableBytes() uint64
}

// encodedProbe appends to dst the encoded form of a locate probe under the
// codecs whose encoded byte strings compare like the original strings (bc,
// and hu as built for array dictionaries), so locate can binary-search on
// compressed data. ok is false for every other codec and for probe
// characters outside the trained alphabet; the caller then searches by
// extraction. The codecs are called through their concrete types: through an
// interface method dst would escape, and with it the caller's stack buffer.
func encodedProbe(c codec, dst, src []byte) (probe []byte, ok bool) {
	switch c := c.(type) {
	case bcCodec:
		if c.c.CanEncode(src) {
			return c.c.Encode(dst, src), true
		}
	case huTuckerCodec:
		if c.c.CanEncode(src) {
			return c.c.Encode(dst, src), true
		}
	}
	return nil, false
}

// rawCodec stores strings verbatim with a NUL terminator.
type rawCodec struct{}

func (rawCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	i := bytes.IndexByte(enc, 0)
	if i < 0 {
		i = len(enc)
		return append(dst, enc...), i
	}
	return append(dst, enc[:i]...), i + 1
}

func (rawCodec) encodeProbe(dst, src []byte) []byte {
	dst = append(dst, src...)
	return append(dst, 0)
}

func (rawCodec) tableBytes() uint64 { return 0 }

// consumedBytes converts a bit-reader position into whole bytes consumed,
// clamped to the buffer length: a corrupt stream without a terminator can
// leave the reader position past the end.
func consumedBytes(r *bits.Reader, enc []byte) int {
	n := int((r.Pos() + 7) / 8)
	if n > len(enc) {
		n = len(enc)
	}
	return n
}

type bcCodec struct{ c *bitcomp.Codec }

func (w bcCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	r := bits.NewReader(enc)
	dst = w.c.DecodeFrom(dst, r)
	return dst, consumedBytes(r, enc)
}
func (w bcCodec) tableBytes() uint64 { return w.c.TableBytes() }

type huTuckerCodec struct{ c *hutucker.Codec }

func (w huTuckerCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	r := bits.NewReader(enc)
	dst = w.c.DecodeFrom(dst, r)
	return dst, consumedBytes(r, enc)
}
func (w huTuckerCodec) tableBytes() uint64 { return w.c.TableBytes() }

type huffmanCodec struct{ c *huffman.Codec }

func (w huffmanCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	r := bits.NewReader(enc)
	dst = w.c.DecodeFrom(dst, r)
	return dst, consumedBytes(r, enc)
}
func (w huffmanCodec) tableBytes() uint64 { return w.c.TableBytes() }

type ngramCodec struct{ c *ngram.Codec }

func (w ngramCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	r := bits.NewReader(enc)
	dst = w.c.DecodeFrom(dst, r)
	return dst, consumedBytes(r, enc)
}
func (w ngramCodec) tableBytes() uint64 { return w.c.TableBytes() }

type repairCodec struct{ g *repair.Grammar }

func (w repairCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	r := bits.NewReader(enc)
	dst = w.g.DecodeFrom(dst, r)
	return dst, consumedBytes(r, enc)
}
func (w repairCodec) tableBytes() uint64 { return w.g.TableBytes() }

// buildCodec trains the scheme's model on parts and returns the codec along
// with the byte-aligned encoded form of every part, in order.
//
// orderPreserving selects Hu-Tucker (order-preserving, slightly larger) over
// Huffman for SchemeHU: array dictionaries want it so locate can compare in
// the encoded domain; front-coded suffixes are walked decoded, so they take
// the better-compressing Huffman code instead.
func buildCodec(s Scheme, parts [][]byte, orderPreserving bool) (codec, [][]byte) {
	var c codec
	var enc func(i int) []byte // byte-aligned encoded form of part i
	switch s {
	case SchemeNone:
		raw := rawCodec{}
		c, enc = raw, func(i int) []byte { return raw.encodeProbe(nil, parts[i]) }
	case SchemeBC:
		bc := bitcomp.Train(parts)
		c, enc = bcCodec{bc}, func(i int) []byte { return bc.Encode(nil, parts[i]) }
	case SchemeHU:
		if orderPreserving {
			ht := hutucker.Train(parts)
			c, enc = huTuckerCodec{ht}, func(i int) []byte { return ht.Encode(nil, parts[i]) }
		} else {
			hf := huffman.Train(parts)
			c, enc = huffmanCodec{hf}, func(i int) []byte { return hf.Encode(nil, parts[i]) }
		}
	case SchemeNG2, SchemeNG3:
		n := 2
		if s == SchemeNG3 {
			n = 3
		}
		ng := ngram.Train(n, parts)
		c, enc = ngramCodec{ng}, func(i int) []byte { return ng.Encode(nil, parts[i]) }
	case SchemeRP12, SchemeRP16:
		width := uint(12)
		if s == SchemeRP16 {
			width = 16
		}
		g, seqs := repair.Train(parts, width)
		c, enc = repairCodec{g}, func(i int) []byte { return g.EncodeSeq(nil, seqs[i]) }
	default:
		panic("dict: unknown scheme")
	}
	encs := make([][]byte, len(parts))
	for i := range encs {
		encs[i] = enc(i)
	}
	return c, encs
}
