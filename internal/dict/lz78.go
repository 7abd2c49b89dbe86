package dict

// The LZ78 dictionary format, after the LZ-compressed string dictionaries
// of arXiv 1305.0674: one phrase table shared by every string, grown by the
// classic LZ78 parse. Each phrase is (parent, char) — the phrase one byte
// longer than its parent — so the table is two flat arrays and a phrase
// expands by walking the parent chain. Each string is stored as its token
// sequence (phrase IDs) in a bit-packed stream with a packed offset per
// string; shared prefixes and repeated substrings across the sorted, highly
// self-similar dictionary input collapse into shared phrases.
//
// This file holds the format's representation, build and serialization; its
// row in the format table is in registry.go, and its size model and default
// costs are in internal/model.

import (
	"strdict/internal/bits"
)

// lz78Dict: phrases are 1-based (token 0 never appears; parent 0 is the
// empty root). Phrase t expands to the expansion of parents[t-1] followed by
// chars[t-1]; parents[t-1] < t, so chains shorten strictly.
type lz78Dict struct {
	n       int
	parents []uint32
	chars   []byte
	tokens  *bits.PackedArray // concatenated per-string token sequences
	offsets *bits.PackedArray // n+1 entries: string i = tokens[offsets[i]:offsets[i+1]]
}

func newLZ78(strs []string) *lz78Dict {
	var (
		parents []uint32
		chars   []byte
		toks    []uint64
	)
	next := make(map[uint64]uint32) // parent<<8 | char → phrase ID
	offs := make([]uint64, len(strs)+1)
	for i, s := range strs {
		offs[i] = uint64(len(toks))
		cur := uint32(0)
		for j := 0; j < len(s); j++ {
			key := uint64(cur)<<8 | uint64(s[j])
			if child, ok := next[key]; ok {
				cur = child
				continue
			}
			// New phrase: cur's expansion extended by this byte. Emit it and
			// restart the parse from the root.
			parents = append(parents, cur)
			chars = append(chars, s[j])
			id := uint32(len(parents))
			next[key] = id
			toks = append(toks, uint64(id))
			cur = 0
		}
		if cur != 0 {
			// The string ended inside a known phrase; emit it as-is.
			toks = append(toks, uint64(cur))
		}
	}
	offs[len(strs)] = uint64(len(toks))
	return &lz78Dict{
		n:       len(strs),
		parents: parents,
		chars:   chars,
		tokens:  bits.PackSlice(toks),
		offsets: bits.PackSlice(offs),
	}
}

// appendPhrase expands one token by walking the parent chain, then reverses
// the emitted suffix into string order.
func (d *lz78Dict) appendPhrase(dst []byte, t uint32) []byte {
	start := len(dst)
	for t != 0 {
		dst = append(dst, d.chars[t-1])
		t = d.parents[t-1]
	}
	for i, j := start, len(dst)-1; i < j; i, j = i+1, j-1 {
		dst[i], dst[j] = dst[j], dst[i]
	}
	return dst
}

func (d *lz78Dict) Extract(id uint32) string {
	return string(d.AppendExtract(nil, id))
}

func (d *lz78Dict) AppendExtract(dst []byte, id uint32) []byte {
	lo := int(d.offsets.Get(int(id)))
	hi := int(d.offsets.Get(int(id) + 1))
	for i := lo; i < hi; i++ {
		dst = d.appendPhrase(dst, uint32(d.tokens.Get(i)))
	}
	return dst
}

func (d *lz78Dict) Locate(s string) (uint32, bool) {
	return locateByExtract(d, d.n, s)
}

func (d *lz78Dict) Len() int       { return d.n }
func (d *lz78Dict) Format() Format { return LZ78 }

func (d *lz78Dict) Bytes() uint64 {
	return 4*uint64(len(d.parents)) + uint64(len(d.chars)) +
		d.tokens.Bytes() + d.offsets.Bytes() + arrayOverhead
}

func (d *lz78Dict) ForEach(fn func(id uint32, value []byte) bool) { forEachByExtract(d, d.n, fn) }

// LZ78Stats runs the real parse over strs and reports the component counts
// the size-prediction model needs: phrase-table entries and total tokens.
func LZ78Stats(strs []string) (phrases, tokens int) {
	d := newLZ78(strs)
	return len(d.parents), d.tokens.Len()
}

func marshalLZ78(e *enc, dict Dictionary) error {
	d, ok := dict.(*lz78Dict)
	if !ok {
		return errWrongType(dict)
	}
	e.u64(uint64(d.n))
	e.bytes(d.chars)
	par := make([]uint64, len(d.parents))
	for i, p := range d.parents {
		par[i] = uint64(p)
	}
	e.packed(bits.PackSlice(par))
	e.packed(d.tokens)
	e.packed(d.offsets)
	return nil
}

func unmarshalLZ78(d *dec) (Dictionary, error) {
	n := d.u64()
	chars := d.bytes()
	parPacked := d.packed()
	tokens := d.packed()
	offsets := d.packed()
	if d.err != nil {
		return nil, d.err
	}
	if n > 1<<40 || parPacked.Len() != len(chars) {
		return nil, ErrCorrupt
	}
	parents := make([]uint32, parPacked.Len())
	for i := range parents {
		p := parPacked.Get(i)
		// parent(t) < t keeps every expansion chain finite.
		if p >= uint64(i)+1 {
			return nil, ErrCorrupt
		}
		parents[i] = uint32(p)
	}
	ld := &lz78Dict{n: int(n), parents: parents, chars: chars, tokens: tokens, offsets: offsets}
	if err := ld.validate(); err != nil {
		return nil, err
	}
	return ld, nil
}

// validate checks the structural invariants: monotonic offsets covering the
// token stream and every token naming an existing phrase. Parent bounds are
// checked during decode.
func (d *lz78Dict) validate() error {
	if d.offsets.Len() != d.n+1 {
		return ErrCorrupt
	}
	prev := uint64(0)
	for i := 0; i <= d.n; i++ {
		v := d.offsets.Get(i)
		if v < prev || v > uint64(d.tokens.Len()) {
			return ErrCorrupt
		}
		prev = v
	}
	if prev != uint64(d.tokens.Len()) || (d.n > 0 && d.offsets.Get(0) != 0) {
		return ErrCorrupt
	}
	for i := 0; i < d.tokens.Len(); i++ {
		t := d.tokens.Get(i)
		if t == 0 || t > uint64(len(d.parents)) {
			return ErrCorrupt
		}
	}
	return nil
}
