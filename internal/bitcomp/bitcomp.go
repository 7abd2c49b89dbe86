// Package bitcomp implements Bit Compression: each distinct character of the
// training corpus is replaced by a fixed-width code of ceil(log2(alphabet))
// bits. Codes are assigned in character order and an end-of-string symbol is
// given code 0 (below every character), so the scheme is order-preserving:
// binary comparison of encoded strings matches lexicographic comparison of
// the originals.
//
// Because the code width is constant, encode and extract are branch-light,
// which is why the paper finds `bc` faster than `hu` at slightly worse
// compression.
package bitcomp

import (
	"fmt"

	"strdict/internal/bits"
)

// Codec holds a trained fixed-width character code.
type Codec struct {
	codeOf [256]uint16 // code for each byte; 0 means "not in alphabet"
	charOf []byte      // charOf[code-1] = byte value; code 0 is EOS
	width  uint        // bits per code
}

// Train builds a codec over the distinct bytes of the corpus parts.
func Train(parts [][]byte) *Codec {
	var present [256]bool
	for _, p := range parts {
		for _, b := range p {
			present[b] = true
		}
	}
	return fromAlphabet(&present)
}

func fromAlphabet(present *[256]bool) *Codec {
	c := &Codec{}
	for b := 0; b < 256; b++ {
		if present[b] {
			c.charOf = append(c.charOf, byte(b))
			c.codeOf[b] = uint16(len(c.charOf)) // 1-based; 0 is EOS
		}
	}
	c.width = bits.Width(uint64(len(c.charOf))) // alphabet + EOS
	return c
}

// Width returns the fixed code width in bits.
func (c *Codec) Width() uint { return c.width }

// AlphabetSize returns the number of distinct characters (excluding EOS).
func (c *Codec) AlphabetSize() int { return len(c.charOf) }

// Encode appends the byte-aligned encoded form of src to dst: the code
// sequence followed by EOS, zero-padded to a whole byte. It allocates only
// to grow dst.
func (c *Codec) Encode(dst []byte, src []byte) []byte {
	nbit := 8 * uint64(len(dst))
	for _, b := range src {
		code := c.codeOf[b]
		if code == 0 {
			panic("bitcomp: encoding character absent from training corpus")
		}
		dst = bits.AppendBits(dst, nbit, uint64(code), c.width)
		nbit += uint64(c.width)
	}
	return bits.AppendBits(dst, nbit, 0, c.width) // EOS
}

// Decode appends the decoded string to dst, reading codes until EOS.
func (c *Codec) Decode(dst []byte, enc []byte) []byte {
	return c.DecodeFrom(dst, bits.NewReader(enc))
}

// DecodeFrom decodes one EOS-terminated string from r, appending to dst.
func (c *Codec) DecodeFrom(dst []byte, r *bits.Reader) []byte {
	for {
		code := r.ReadBits(c.width)
		// Code 0 is EOS; codes beyond the alphabet only appear in corrupt
		// streams and terminate decoding defensively.
		if code == 0 || code > uint64(len(c.charOf)) {
			return dst
		}
		dst = append(dst, c.charOf[code-1])
	}
}

// TableBytes reports the in-memory footprint of the codec's tables.
func (c *Codec) TableBytes() uint64 {
	return 256*2 + uint64(len(c.charOf)) + 8
}

// Name identifies the scheme.
func (c *Codec) Name() string { return "bc" }

// CanEncode reports whether every character of src is in the alphabet.
func (c *Codec) CanEncode(src []byte) bool {
	for _, b := range src {
		if c.codeOf[b] == 0 {
			return false
		}
	}
	return true
}

// DecodeN decodes exactly n characters from enc, ignoring the EOS
// terminator. It exists for the EOS-vs-stored-length ablation benchmark:
// with an external length, per-string decode can skip the terminator check.
func (c *Codec) DecodeN(dst []byte, enc []byte, n int) []byte {
	r := bits.NewReader(enc)
	for i := 0; i < n; i++ {
		dst = append(dst, c.charOf[r.ReadBits(c.width)-1])
	}
	return dst
}

// Alphabet returns the sorted distinct characters, the codec's serialized
// form.
func (c *Codec) Alphabet() []byte {
	return append([]byte(nil), c.charOf...)
}

// FromAlphabet rebuilds a codec from a serialized alphabet, which must be
// strictly ascending.
func FromAlphabet(alphabet []byte) (*Codec, error) {
	var present [256]bool
	for i, b := range alphabet {
		if i > 0 && alphabet[i-1] >= b {
			return nil, fmt.Errorf("bitcomp: alphabet not strictly ascending")
		}
		present[b] = true
	}
	return fromAlphabet(&present), nil
}
