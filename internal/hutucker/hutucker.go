// Package hutucker implements Hu-Tucker coding: optimal order-preserving
// (alphabetic) binary prefix codes.
//
// It realizes the order-preserving branch of the paper's `hu` string
// compression scheme. Because code words are assigned by an alphabetic tree,
// the binary order of two encoded strings equals the lexicographic order of
// the original strings, which lets order-based operations such as locate work
// directly on compressed data. A reserved end-of-string symbol that sorts
// below every byte keeps the order correct across strings of different
// lengths ("abc" < "abcd") and makes encoded strings self-delimiting.
package hutucker

import (
	"fmt"

	"strdict/internal/bits"
)

// NumSymbols is the alphabet size: EOS plus 256 byte values.
const NumSymbols = 257

// EOS is the end-of-string symbol. In the alphabetic order used here EOS is
// symbol 0 and byte b is symbol b+1, so EOS sorts below every byte.
const EOS = 0

// symOf maps a byte to its symbol number.
func symOf(b byte) int { return int(b) + 1 }

// Codec holds a trained Hu-Tucker code.
type Codec struct {
	codeOf [NumSymbols]uint64
	lenOf  [NumSymbols]uint8

	// Decoding tree: node 0 is the root; negative entries are ^symbol.
	left, right []int32

	// One-shot decode table: the next lutBits bits index an entry holding
	// sym<<8 | codeLen; codeLen 0 escapes to the tree walk.
	lut [1 << lutBits]uint32
}

// lutBits sizes the fast decode table (4 KiB).
const lutBits = 10

// Train builds a codec from the corpus parts. Each part contributes its
// bytes, plus one EOS occurrence per part. Symbols that never occur are
// excluded from the tree (they cannot be encoded later).
func Train(parts [][]byte) *Codec {
	var freq [NumSymbols]uint64
	for _, p := range parts {
		for _, b := range p {
			freq[symOf(b)]++
		}
		freq[EOS]++
	}
	if freq[EOS] == 0 {
		freq[EOS] = 1
	}
	return fromFrequencies(&freq)
}

// fromFrequencies runs the three phases of the Hu-Tucker algorithm on the
// symbols with non-zero frequency, in alphabetic order.
func fromFrequencies(freq *[NumSymbols]uint64) *Codec {
	c := &Codec{}
	var syms []int
	var weights []uint64
	for s := 0; s < NumSymbols; s++ {
		if freq[s] > 0 {
			syms = append(syms, s)
			weights = append(weights, freq[s])
		}
	}
	switch len(syms) {
	case 0:
		return c
	case 1:
		c.lenOf[syms[0]] = 1
		c.codeOf[syms[0]] = 0
		c.left = []int32{^int32(0)}  // degenerate: both branches decode the
		c.right = []int32{^int32(0)} // single symbol (placeholder fixed below)
		c.left[0] = ^int32(syms[0])
		c.right[0] = ^int32(syms[0])
		c.buildLUT()
		return c
	}

	levels := combineAndLevel(weights)
	c.reconstruct(syms, levels)
	return c
}

// combineAndLevel is phases 1 and 2: combine compatible pairs of minimal
// weight until one node remains, then return the depth of each original leaf.
type htNode struct {
	weight      uint64
	leaf        bool // an original terminal node
	left, right int  // arena children (-1 for leaves)
	sym         int  // original position for leaves
}

func combineAndLevel(weights []uint64) []int {
	n := len(weights)
	arena := make([]htNode, 0, 2*n)
	work := make([]int, n) // indices into arena, in alphabetic order
	for i, w := range weights {
		arena = append(arena, htNode{weight: w, leaf: true, left: -1, right: -1, sym: i})
		work[i] = i
	}

	for len(work) > 1 {
		// Find the compatible pair (i,j), i<j, with minimal weight sum.
		// Nodes are compatible if no original leaf lies strictly between
		// them. Ties: smallest i, then smallest j.
		bi, bj := -1, -1
		var best uint64
		for i := 0; i < len(work)-1; i++ {
			wi := arena[work[i]].weight
			for j := i + 1; j < len(work); j++ {
				sum := wi + arena[work[j]].weight
				if bi < 0 || sum < best {
					best, bi, bj = sum, i, j
				}
				if arena[work[j]].leaf {
					break // a leaf at j blocks pairs (i, j') for j' > j
				}
			}
		}
		arena = append(arena, htNode{
			weight: best,
			left:   work[bi], right: work[bj],
			sym: -1,
		})
		work[bi] = len(arena) - 1
		work = append(work[:bj], work[bj+1:]...)
	}

	levels := make([]int, n)
	var walk func(node, depth int)
	walk = func(node, depth int) {
		nd := arena[node]
		if nd.leaf {
			levels[nd.sym] = depth
			return
		}
		walk(nd.left, depth+1)
		walk(nd.right, depth+1)
	}
	walk(work[0], 0)
	return levels
}

// reconstruct is phase 3: rebuild the alphabetic tree from leaf levels with
// the classic stack method, then assign codes and decoding tables.
func (c *Codec) reconstruct(syms []int, levels []int) {
	type entry struct {
		node  int32
		level int
	}
	// Tree arena; leaves are encoded as ^symbol directly in parent slots.
	var stack []entry
	newInternal := func(l, r int32) int32 {
		c.left = append(c.left, l)
		c.right = append(c.right, r)
		return int32(len(c.left) - 1)
	}
	for i, s := range syms {
		stack = append(stack, entry{node: ^int32(s), level: levels[i]})
		for len(stack) >= 2 && stack[len(stack)-1].level == stack[len(stack)-2].level {
			a := stack[len(stack)-2]
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-2]
			stack = append(stack, entry{node: newInternal(a.node, b.node), level: a.level - 1})
		}
	}
	if len(stack) != 1 || stack[0].level != 0 {
		panic("hutucker: invalid level sequence during reconstruction")
	}
	root := stack[0].node
	if root >= 0 && root != int32(len(c.left)-1) {
		// Root should be the last internal node created; re-rooting is not
		// needed because we always decode starting from it.
		panic("hutucker: unexpected root")
	}
	// Move the root to index 0 by convention: swap arena entries.
	ri := int(root)
	last := len(c.left) - 1
	if ri != last {
		panic("hutucker: root must be final node")
	}
	c.rootIndexToFront()

	// Assign codes by walking the tree.
	var assign func(node int32, code uint64, depth uint8)
	assign = func(node int32, code uint64, depth uint8) {
		if node < 0 {
			s := int(^node)
			c.codeOf[s] = code
			c.lenOf[s] = depth
			return
		}
		assign(c.left[node], code<<1, depth+1)
		assign(c.right[node], code<<1|1, depth+1)
	}
	assign(0, 0, 0)
	c.buildLUT()
}

// buildLUT fills the one-shot decode table from the assigned codes.
func (c *Codec) buildLUT() {
	for i := range c.lut {
		c.lut[i] = 0
	}
	for s := 0; s < NumSymbols; s++ {
		l := uint(c.lenOf[s])
		if l == 0 || l > lutBits {
			continue
		}
		base := c.codeOf[s] << (lutBits - l)
		span := uint64(1) << (lutBits - l)
		entry := uint32(s)<<8 | uint32(l)
		for i := uint64(0); i < span; i++ {
			c.lut[base+i] = entry
		}
	}
}

// rootIndexToFront swaps the final (root) node with index 0 and patches
// child references, so decoding can always start at node 0.
func (c *Codec) rootIndexToFront() {
	last := int32(len(c.left) - 1)
	if last == 0 {
		return
	}
	c.left[0], c.left[last] = c.left[last], c.left[0]
	c.right[0], c.right[last] = c.right[last], c.right[0]
	for i := range c.left {
		switch c.left[i] {
		case 0:
			c.left[i] = last
		case last:
			c.left[i] = 0
		}
		switch c.right[i] {
		case 0:
			c.right[i] = last
		case last:
			c.right[i] = 0
		}
	}
}

// CodeLen returns the code length in bits for byte b, or 0 if b was not in
// the training corpus.
func (c *Codec) CodeLen(b byte) int { return int(c.lenOf[symOf(b)]) }

// EOSLen returns the code length of the end-of-string symbol.
func (c *Codec) EOSLen() int { return int(c.lenOf[EOS]) }

// Code returns the code word and length for symbol s (use symOf/EOS).
func (c *Codec) code(s int) (uint64, uint) {
	return c.codeOf[s], uint(c.lenOf[s])
}

// Encode appends the byte-aligned encoded form of src to dst: the code
// sequence followed by EOS, zero-padded to a whole byte. It allocates only
// to grow dst.
func (c *Codec) Encode(dst []byte, src []byte) []byte {
	nbit := 8 * uint64(len(dst))
	for _, b := range src {
		v, l := c.code(symOf(b))
		if l == 0 {
			panic("hutucker: encoding symbol absent from training corpus")
		}
		dst = bits.AppendBits(dst, nbit, v, l)
		nbit += uint64(l)
	}
	v, l := c.code(EOS)
	return bits.AppendBits(dst, nbit, v, l)
}

// Decode appends the decoded string to dst, reading codes until EOS.
func (c *Codec) Decode(dst []byte, enc []byte) []byte {
	return c.DecodeFrom(dst, bits.NewReader(enc))
}

// DecodeFrom decodes one EOS-terminated string from r, appending to dst.
func (c *Codec) DecodeFrom(dst []byte, r *bits.Reader) []byte {
	if len(c.left) == 0 {
		return dst
	}
	for {
		var s int
		if e := c.lut[r.PeekBits(lutBits)]; e&0xff != 0 {
			r.Skip(uint(e & 0xff))
			s = int(e >> 8)
		} else {
			node := int32(0)
			for node >= 0 {
				if r.ReadBit() == 0 {
					node = c.left[node]
				} else {
					node = c.right[node]
				}
			}
			s = int(^node)
		}
		if s == EOS {
			return dst
		}
		dst = append(dst, byte(s-1))
	}
}

// TableBytes reports the in-memory footprint of the codec's tables.
func (c *Codec) TableBytes() uint64 {
	return NumSymbols*8 + NumSymbols + uint64(len(c.left))*8
}

// Name identifies the scheme.
func (c *Codec) Name() string { return "hu" }

// CanEncode reports whether every character of src has a code.
func (c *Codec) CanEncode(src []byte) bool {
	for _, b := range src {
		if c.lenOf[symOf(b)] == 0 {
			return false
		}
	}
	return true
}

// CodeLengths returns the per-symbol code lengths, the codec's serialized
// form: an alphabetic code is fully determined by them via the phase-3
// reconstruction.
func (c *Codec) CodeLengths() []uint8 {
	out := make([]uint8, NumSymbols)
	copy(out, c.lenOf[:])
	return out
}

// FromCodeLengths rebuilds a codec from serialized code lengths, validating
// that they describe a feasible alphabetic prefix code.
func FromCodeLengths(lens []uint8) (c *Codec, err error) {
	if len(lens) != NumSymbols {
		return nil, fmt.Errorf("hutucker: %d code lengths, want %d", len(lens), NumSymbols)
	}
	var syms []int
	var levels []int
	for s, l := range lens {
		if l > 0 {
			syms = append(syms, s)
			levels = append(levels, int(l))
		}
	}
	switch len(syms) {
	case 0:
		return &Codec{}, nil
	case 1:
		if levels[0] != 1 {
			return nil, fmt.Errorf("hutucker: single symbol must have length 1")
		}
		var freq [NumSymbols]uint64
		freq[syms[0]] = 1
		return fromFrequencies(&freq), nil
	}
	// The stack reconstruction rejects infeasible level sequences by
	// panicking; convert that to an error at this trust boundary.
	defer func() {
		if recover() != nil {
			c, err = nil, fmt.Errorf("hutucker: code lengths do not form an alphabetic tree")
		}
	}()
	c = &Codec{}
	c.reconstruct(syms, levels)
	return c, nil
}
