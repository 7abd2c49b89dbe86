// Package ngram implements the fixed-length 12-bit n-gram compression scheme
// of the paper (`ng2` for 2-grams, `ng3` for 3-grams).
//
// The 2^12 code space is split into 256 single-character backup codes, one
// end-of-string code, and the 3839 most frequent n-grams of the training
// corpus. Encoding scans left to right and emits an n-gram code when the
// next n characters form a frequent gram, otherwise a backup code for one
// character. The scheme does not preserve order (a frequent gram can start
// below a character that follows it in a competing string), so locate falls
// back to extraction-based search.
package ngram

import (
	"fmt"

	"strdict/internal/bits"
	"strdict/internal/tally"
)

// CodeBits is the fixed code width.
const CodeBits = 12

// eosCode terminates every encoded string. Codes 0-255 are character backup
// codes; gram codes start at 257.
const eosCode = 256

// MaxGrams is the number of n-gram codes available (2^12 - 256 backup - EOS).
const MaxGrams = (1 << CodeBits) - 257

// maxN bounds the gram length: a gram is looked up by its bytes packed
// big-endian into a uint32, which orders keys like the gram strings.
const maxN = 4

// Codec holds a trained n-gram table.
type Codec struct {
	n      int
	codeOf tally.Table // packed gram -> code (>= 257)
	grams  []string    // grams[code-257] = gram
}

// pack returns the key of the n-gram at the start of g.
func pack[S string | []byte](g S, n int) uint32 {
	var key uint32
	for i := 0; i < n; i++ {
		key = key<<8 | uint32(g[i])
	}
	return key
}

// Train builds a codec collecting the most frequent n-grams (overlapping
// occurrences) of the corpus parts; among equally frequent grams the
// lexicographically smaller comes first.
func Train(n int, parts [][]byte) *Codec {
	if n < 2 || n > maxN {
		panic(fmt.Sprintf("ngram: n must be between 2 and %d", maxN))
	}
	var counts tally.Table
	mask := uint32(1)<<(8*uint(n)) - 1 // all ones for n == 4
	for _, p := range parts {
		var key uint32
		for i, b := range p {
			key = (key<<8 | uint32(b)) & mask
			if i >= n-1 {
				counts.Inc(key)
			}
		}
	}
	ranked := counts.Ranked(nil, 1)
	if len(ranked) > MaxGrams {
		ranked = ranked[:MaxGrams]
	}
	// The gram strings share one backing array.
	text := make([]byte, 0, n*len(ranked))
	for _, e := range ranked {
		key, _ := tally.Unrank(e)
		for sh := 8 * (n - 1); sh >= 0; sh -= 8 {
			text = append(text, byte(key>>uint(sh)))
		}
	}
	grams, all := make([]string, len(ranked)), string(text)
	for i := range grams {
		grams[i] = all[i*n : (i+1)*n]
	}
	c, err := FromGrams(n, grams)
	if err != nil {
		panic(err) // distinct n-grams within budget by construction
	}
	return c
}

// N returns the gram length.
func (c *Codec) N() int { return c.n }

// GramCount returns how many grams hold proper codes.
func (c *Codec) GramCount() int { return len(c.grams) }

// code returns the code of the gram at the start of src, 0 if src is
// shorter than a gram or the gram has no code.
func (c *Codec) code(src []byte) uint32 {
	if len(src) < c.n {
		return 0
	}
	return c.codeOf.Get(pack(src, c.n))
}

// Encode appends the byte-aligned encoded form of src (EOS-terminated) to dst.
func (c *Codec) Encode(dst []byte, src []byte) []byte {
	var w bits.Writer
	c.EncodeTo(&w, src)
	w.Align()
	return append(dst, w.Bytes()...)
}

// EncodeTo writes the unaligned code sequence for src followed by EOS.
func (c *Codec) EncodeTo(w *bits.Writer, src []byte) {
	for i := 0; i < len(src); {
		if code := c.code(src[i:]); code != 0 {
			w.WriteBits(uint64(code), CodeBits)
			i += c.n
			continue
		}
		w.WriteBits(uint64(src[i]), CodeBits)
		i++
	}
	w.WriteBits(eosCode, CodeBits)
}

// CodeCount returns how many codes EncodeTo emits for src, EOS included,
// without encoding it.
func (c *Codec) CodeCount(src []byte) int {
	codes := 1
	for i := 0; i < len(src); codes++ {
		if c.code(src[i:]) != 0 {
			i += c.n
		} else {
			i++
		}
	}
	return codes
}

// Decode appends the decoded string to dst, reading codes until EOS.
func (c *Codec) Decode(dst []byte, enc []byte) []byte {
	return c.DecodeFrom(dst, bits.NewReader(enc))
}

// DecodeFrom decodes one EOS-terminated string from r, appending to dst.
func (c *Codec) DecodeFrom(dst []byte, r *bits.Reader) []byte {
	// A corrupt stream can run off its buffer before EOS; past the end the
	// reader yields zeros, a character code, forever, so stop there.
	for r.Remaining() > 0 {
		code := r.ReadBits(CodeBits)
		switch {
		case code < 256:
			dst = append(dst, byte(code))
		case code == eosCode, int(code-257) >= len(c.grams):
			// EOS, or a gram code beyond the table (corrupt stream):
			// terminate defensively.
			return dst
		default:
			dst = append(dst, c.grams[code-257]...)
		}
	}
	return dst
}

// TableBytes reports the in-memory footprint of the codec's tables: the gram
// strings plus per-gram bookkeeping (string header + hash entry).
func (c *Codec) TableBytes() uint64 {
	var b uint64
	for _, g := range c.grams {
		b += uint64(len(g)) + 16 + 8 // payload + string header + map slot
	}
	return b + 8
}

// Name identifies the scheme.
func (c *Codec) Name() string {
	if c.n == 2 {
		return "ng2"
	}
	if c.n == 3 {
		return "ng3"
	}
	return "ng"
}

// Grams returns the gram table in code order, the codec's serialized form.
func (c *Codec) Grams() []string {
	return append([]string(nil), c.grams...)
}

// FromGrams rebuilds a codec from a serialized gram table.
func FromGrams(n int, grams []string) (*Codec, error) {
	if n < 2 || n > maxN {
		return nil, fmt.Errorf("ngram: n must be between 2 and %d", maxN)
	}
	if len(grams) > MaxGrams {
		return nil, fmt.Errorf("ngram: %d grams exceed the %d-code budget", len(grams), MaxGrams)
	}
	c := &Codec{n: n, grams: make([]string, 0, len(grams))}
	for _, g := range grams {
		if len(g) != n {
			return nil, fmt.Errorf("ngram: gram %q has length %d, want %d", g, len(g), n)
		}
		if c.codeOf.Get(pack(g, n)) != 0 {
			return nil, fmt.Errorf("ngram: duplicate gram %q", g)
		}
		c.grams = append(c.grams, g)
		c.codeOf.Set(pack(g, n), uint32(len(c.grams)-1+257))
	}
	return c, nil
}
