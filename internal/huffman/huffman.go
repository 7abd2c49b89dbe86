// Package huffman implements canonical, length-limited Huffman coding over
// single bytes plus a reserved end-of-string (EOS) symbol.
//
// It realizes the `hu` string compression scheme of the paper for the cases
// where order preservation is not required (the order-preserving sibling is
// package hutucker). Every encoded string is terminated by the EOS code, so
// individual strings are self-delimiting and can be decoded without knowing
// their original length.
package huffman

import (
	"container/heap"
	"fmt"
	"sort"

	"strdict/internal/bits"
)

// NumSymbols is the alphabet size: 256 byte values plus EOS.
const NumSymbols = 257

// EOS is the end-of-string symbol appended to every encoded string.
const EOS = 256

// maxCodeLen limits code lengths so that codes always fit comfortably in a
// 64-bit read; pathological frequency distributions are adjusted to honor it.
const maxCodeLen = 32

// Codec holds a trained canonical Huffman code.
type Codec struct {
	codeOf [NumSymbols]uint32 // canonical code, MSB-aligned at its length
	lenOf  [NumSymbols]uint8  // code length in bits; 0 = symbol unused

	// Canonical decoding tables indexed by code length 1..maxCodeLen.
	firstCode  [maxCodeLen + 1]uint32 // first canonical code of each length
	firstIndex [maxCodeLen + 1]int32  // index into symByCode of that code
	countLen   [maxCodeLen + 1]int32  // number of codes of each length
	symByCode  []uint16               // symbols sorted by (length, code)

	// One-shot decode table: the next lutBits bits index an entry holding
	// sym<<8 | codeLen for codes short enough to resolve in one lookup;
	// codeLen 0 escapes to the canonical bit-by-bit path.
	lut [1 << lutBits]uint32
}

// lutBits sizes the fast decode table (4 KiB); nearly all real codes are
// shorter than this, so decode is one table lookup per symbol.
const lutBits = 10

// Train builds a codec from the given corpus parts. Frequencies are counted
// over all bytes of all parts, and every part contributes one EOS occurrence.
// Symbols that never occur get no code; encoding a string containing one
// later is a programming error and panics.
func Train(parts [][]byte) *Codec {
	var freq [NumSymbols]uint64
	for _, p := range parts {
		for _, b := range p {
			freq[b]++
		}
		freq[EOS]++
	}
	if freq[EOS] == 0 {
		freq[EOS] = 1 // a codec must always be able to terminate a string
	}
	return fromFrequencies(&freq)
}

type hnode struct {
	weight uint64
	sym    int // -1 for internal
	left   int // index into node arena
	right  int
}

type nodeHeap struct {
	arena []hnode
	idx   []int
}

func (h nodeHeap) Len() int { return len(h.idx) }
func (h nodeHeap) Less(i, j int) bool {
	a, b := h.arena[h.idx[i]], h.arena[h.idx[j]]
	if a.weight != b.weight {
		return a.weight < b.weight
	}
	return h.idx[i] < h.idx[j] // deterministic tie-break
}
func (h nodeHeap) Swap(i, j int)       { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *nodeHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	x := old[n-1]
	h.idx = old[:n-1]
	return x
}

func fromFrequencies(freq *[NumSymbols]uint64) *Codec {
	c := &Codec{}

	// Build the Huffman tree over used symbols.
	h := &nodeHeap{}
	for s, f := range freq {
		if f > 0 {
			h.arena = append(h.arena, hnode{weight: f, sym: s, left: -1, right: -1})
		}
	}
	used := len(h.arena)
	switch used {
	case 0:
		return c
	case 1:
		c.lenOf[h.arena[0].sym] = 1
	default:
		h.idx = make([]int, used)
		for i := range h.idx {
			h.idx[i] = i
		}
		heap.Init(h)
		for h.Len() > 1 {
			a := heap.Pop(h).(int)
			b := heap.Pop(h).(int)
			h.arena = append(h.arena, hnode{
				weight: h.arena[a].weight + h.arena[b].weight,
				sym:    -1, left: a, right: b,
			})
			heap.Push(h, len(h.arena)-1)
		}
		root := h.idx[0]
		assignDepths(h.arena, root, 0, &c.lenOf)
	}

	limitLengths(&c.lenOf, freq)
	c.buildCanonical()
	return c
}

func assignDepths(arena []hnode, n int, depth uint8, lenOf *[NumSymbols]uint8) {
	nd := arena[n]
	if nd.sym >= 0 {
		if depth == 0 {
			depth = 1
		}
		lenOf[nd.sym] = depth
		return
	}
	assignDepths(arena, nd.left, depth+1, lenOf)
	assignDepths(arena, nd.right, depth+1, lenOf)
}

// limitLengths clamps code lengths to maxCodeLen and repairs the Kraft sum,
// then tightens lengths where slack remains.
func limitLengths(lenOf *[NumSymbols]uint8, freq *[NumSymbols]uint64) {
	const L = maxCodeLen
	var kraft uint64 // scaled by 2^L
	var syms []int
	for s := range lenOf {
		if lenOf[s] == 0 {
			continue
		}
		if lenOf[s] > L {
			lenOf[s] = L
		}
		kraft += 1 << (L - lenOf[s])
		syms = append(syms, s)
	}
	if kraft <= 1<<L {
		return
	}
	// Lengthen the cheapest (least frequent) symbols with the longest codes
	// until the code is feasible again.
	sort.Slice(syms, func(i, j int) bool {
		if lenOf[syms[i]] != lenOf[syms[j]] {
			return lenOf[syms[i]] > lenOf[syms[j]]
		}
		return freq[syms[i]] < freq[syms[j]]
	})
	for kraft > 1<<L {
		for _, s := range syms {
			if lenOf[s] < L {
				kraft -= 1 << (L - lenOf[s] - 1)
				lenOf[s]++
				if kraft <= 1<<L {
					break
				}
			}
		}
	}
}

// buildCanonical derives canonical codes and decoding tables from lenOf.
func (c *Codec) buildCanonical() {
	for l := range c.countLen {
		c.countLen[l] = 0
	}
	var order []uint16
	for s := 0; s < NumSymbols; s++ {
		if c.lenOf[s] > 0 {
			c.countLen[c.lenOf[s]]++
			order = append(order, uint16(s))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if c.lenOf[a] != c.lenOf[b] {
			return c.lenOf[a] < c.lenOf[b]
		}
		return a < b
	})
	c.symByCode = order

	var code uint32
	var index int32
	for l := 1; l <= maxCodeLen; l++ {
		c.firstCode[l] = code
		c.firstIndex[l] = index
		code = (code + uint32(c.countLen[l])) << 1
		index += c.countLen[l]
	}
	// Assign per-symbol codes.
	var next [maxCodeLen + 1]uint32
	for l := 1; l <= maxCodeLen; l++ {
		next[l] = c.firstCode[l]
	}
	for _, s := range order {
		l := c.lenOf[s]
		c.codeOf[s] = next[l]
		next[l]++
	}

	for i := range c.lut {
		c.lut[i] = 0
	}
	for _, s := range order {
		l := uint(c.lenOf[s])
		if l > lutBits {
			continue
		}
		base := c.codeOf[s] << (lutBits - l)
		span := uint32(1) << (lutBits - l)
		entry := uint32(s)<<8 | uint32(l)
		for i := uint32(0); i < span; i++ {
			c.lut[base+i] = entry
		}
	}
}

// CodeLen returns the code length in bits for symbol s (0-255 or EOS),
// or 0 if the symbol has no code.
func (c *Codec) CodeLen(s int) int { return int(c.lenOf[s]) }

// Encode appends the encoded form of src (terminated by EOS) to dst and
// returns the extended slice.
func (c *Codec) Encode(dst []byte, src []byte) []byte {
	var w bits.Writer
	c.EncodeTo(&w, src)
	w.Align()
	return append(dst, w.Bytes()...)
}

// EncodeTo writes the code sequence for src followed by EOS to w without
// aligning, so multiple strings can share a bit stream.
func (c *Codec) EncodeTo(w *bits.Writer, src []byte) {
	for _, b := range src {
		l := c.lenOf[b]
		if l == 0 {
			panic("huffman: encoding symbol absent from training corpus")
		}
		w.WriteBits(uint64(c.codeOf[b]), uint(l))
	}
	w.WriteBits(uint64(c.codeOf[EOS]), uint(c.lenOf[EOS]))
}

// Decode appends the decoded string to dst, reading codes from enc until the
// EOS symbol, and returns the extended slice.
func (c *Codec) Decode(dst []byte, enc []byte) []byte {
	r := bits.NewReader(enc)
	return c.DecodeFrom(dst, r)
}

// DecodeFrom decodes one EOS-terminated string from r, appending to dst.
func (c *Codec) DecodeFrom(dst []byte, r *bits.Reader) []byte {
	// A corrupt stream can run off its buffer before EOS; past the end the
	// reader yields zeros, which decode to a symbol, forever, so stop there.
	for r.Remaining() > 0 {
		var s int
		if e := c.lut[r.PeekBits(lutBits)]; e&0xff != 0 {
			r.Skip(uint(e & 0xff))
			s = int(e >> 8)
		} else {
			s = c.readSymbol(r)
		}
		if s == EOS {
			return dst
		}
		dst = append(dst, byte(s))
	}
	return dst
}

func (c *Codec) readSymbol(r *bits.Reader) int {
	var code uint32
	for l := 1; l <= maxCodeLen; l++ {
		code = code<<1 | uint32(r.ReadBit())
		n := c.countLen[l]
		if n > 0 && code-c.firstCode[l] < uint32(n) {
			return int(c.symByCode[c.firstIndex[l]+int32(code-c.firstCode[l])])
		}
	}
	// No code matched within the length limit: only possible on a corrupt
	// stream; terminate decoding defensively.
	return EOS
}

// TableBytes reports the in-memory footprint of the codec's tables, charged
// to the dictionary that owns it.
func (c *Codec) TableBytes() uint64 {
	// codeOf + lenOf + canonical tables + symbol array.
	return NumSymbols*4 + NumSymbols +
		uint64(len(c.firstCode))*4 + uint64(len(c.firstIndex))*4 +
		uint64(len(c.countLen))*4 + uint64(len(c.symByCode))*2
}

// Name identifies the scheme.
func (c *Codec) Name() string { return "hu" }

// CodeLengths returns the per-symbol code lengths; together with the
// canonical code construction they fully determine the codec, so they are
// the codec's serialized form.
func (c *Codec) CodeLengths() []uint8 {
	out := make([]uint8, NumSymbols)
	copy(out, c.lenOf[:])
	return out
}

// FromCodeLengths rebuilds a codec from serialized code lengths, validating
// that they describe a feasible prefix code.
func FromCodeLengths(lens []uint8) (*Codec, error) {
	if len(lens) != NumSymbols {
		return nil, fmt.Errorf("huffman: %d code lengths, want %d", len(lens), NumSymbols)
	}
	var kraft uint64 // scaled by 2^maxCodeLen
	c := &Codec{}
	for s, l := range lens {
		if l > maxCodeLen {
			return nil, fmt.Errorf("huffman: code length %d exceeds limit %d", l, maxCodeLen)
		}
		if l > 0 {
			kraft += 1 << (maxCodeLen - l)
		}
		c.lenOf[s] = l
	}
	if kraft > 1<<maxCodeLen {
		return nil, fmt.Errorf("huffman: code lengths violate the Kraft inequality")
	}
	c.buildCanonical()
	return c, nil
}
