package dict

// The OnPair dictionary format: a greedy pair table in the style of
// arXiv 2508.02280. Build runs a fixed number of rounds; each round counts
// the frequency of every adjacent symbol pair across all strings, promotes
// the most frequent pairs to fresh symbols, and rewrites the strings with a
// single left-to-right replacement pass. The result is one flat, bit-packed
// symbol stream with a packed offset per string: extraction reads one
// contiguous symbol slice and expands each symbol through the pair table —
// no block to decode, no neighbour reconstruction — which keeps random
// access close to the plain array formats while the pair table absorbs the
// corpus's repeated bigrams, trigrams and short substrings.
//
// This file holds the format's representation, build and serialization; its
// row in the format table is in registry.go, and its size model and default
// costs are in internal/model.

import (
	"strdict/internal/bits"
	"strdict/internal/tally"
)

const (
	// OnPairMaxPairs caps the pair table. 4096 pairs keep every symbol
	// below 256+4096, so the packed stream never needs more than 13 bits
	// per symbol and the table itself stays a few KiB. Exported for the
	// size model's sampled-scaling clamp.
	OnPairMaxPairs = 4096

	// onpairRounds bounds the greedy promotion rounds. Each round can pair
	// up symbols produced by the previous one, so r rounds capture
	// substrings up to 2^r bytes.
	onpairRounds = 12

	// onpairMinFreq is the promotion threshold: a pair must occur at least
	// this often to earn a table slot, or the slot costs more than it saves.
	onpairMinFreq = 4
)

// onpairDict stores every string as a slice of one flat symbol stream.
// Symbols below 256 are literal bytes; symbol 256+j expands to pair j.
type onpairDict struct {
	n       int
	pairs   []uint32          // pair j = left<<16 | right, both < 256+j
	syms    *bits.PackedArray // concatenated per-string symbol sequences
	offsets *bits.PackedArray // n+1 entries: string i = syms[offsets[i]:offsets[i+1]]
}

// trainOnPair runs the promotion rounds over strs on flat storage: one
// symbol buffer holds every string back to back (string i ends at ends[i])
// and is rewritten in place round by round; pairs are counted and looked up
// in flat integer-keyed tables reused across rounds.
func trainOnPair(strs []string) (pairs []uint32, syms []uint16, ends []int) {
	total := 0
	ends = make([]int, len(strs))
	for i, s := range strs {
		total += len(s)
		ends[i] = total
	}
	syms = make([]uint16, 0, total)
	for _, s := range strs {
		for j := 0; j < len(s); j++ {
			syms = append(syms, uint16(s[j]))
		}
	}

	var freq, selected tally.Table
	isLeft := make([]bool, 256+OnPairMaxPairs) // symbols that start a selected pair
	var cands []uint64
	for round := 0; round < onpairRounds && len(pairs) < OnPairMaxPairs; round++ {
		freq.Reset()
		start := 0
		for _, end := range ends {
			for j := start; j+1 < end; j++ {
				freq.Inc(uint32(syms[j])<<16 | uint32(syms[j+1]))
			}
			start = end
		}
		// Deterministic order: frequency descending, then key.
		cands = freq.Ranked(cands[:0], onpairMinFreq)
		if len(cands) == 0 {
			break
		}
		// Spread the table budget evenly over the remaining rounds instead of
		// letting an early flood of barely-frequent pairs exhaust it: deep
		// rounds are where long repeated substrings collapse, and reserving
		// slots for them both compresses better and keeps the build's
		// behaviour stable between a sample and the full column (which the
		// size model relies on).
		budget := (OnPairMaxPairs - len(pairs)) / (onpairRounds - round)
		if budget < 1 {
			budget = 1
		}
		if len(cands) > budget {
			cands = cands[:budget]
		}
		selected.Reset()
		clear(isLeft)
		for _, c := range cands {
			key, _ := tally.Unrank(c)
			selected.Set(key, uint32(256+len(pairs)))
			isLeft[key>>16] = true
			pairs = append(pairs, key)
		}
		// One greedy left-to-right replacement pass per string. The write
		// index never passes the read index, so rewriting in place is safe.
		w, start := 0, 0
		for i, end := range ends {
			for j := start; j < end; {
				if j+1 < end && isLeft[syms[j]] {
					if sym := selected.Get(uint32(syms[j])<<16 | uint32(syms[j+1])); sym != 0 {
						syms[w] = uint16(sym)
						w++
						j += 2
						continue
					}
				}
				syms[w] = syms[j]
				w++
				j++
			}
			start, ends[i] = end, w
		}
		syms = syms[:w]
	}
	return pairs, syms, ends
}

// symWidthOf is the packed bit width of a symbol stream.
func symWidthOf(syms []uint16) uint {
	var max uint16
	for _, v := range syms {
		if v > max {
			max = v
		}
	}
	return bits.Width(uint64(max))
}

func newOnPair(strs []string) *onpairDict {
	pairs, syms, ends := trainOnPair(strs)
	packed := bits.NewPackedArray(len(syms), symWidthOf(syms))
	for i, v := range syms {
		packed.Set(i, uint64(v))
	}
	offs := make([]uint64, len(strs)+1)
	for i, end := range ends {
		offs[i+1] = uint64(end)
	}
	return &onpairDict{
		n:       len(strs),
		pairs:   pairs,
		syms:    packed,
		offsets: bits.PackSlice(offs),
	}
}

// appendSymbol expands one symbol through the pair table: follow left
// children, stack the rights. No pair is deeper than onpairRounds (built so,
// checked by validate), so the stack is a fixed array and nothing allocates.
func (d *onpairDict) appendSymbol(dst []byte, sym uint32) []byte {
	stack, n := [onpairRounds]uint32{}, 0
	for {
		for sym >= 256 {
			p := d.pairs[sym-256]
			stack[n], sym, n = p&0xffff, p>>16, n+1
		}
		dst = append(dst, byte(sym))
		if n == 0 {
			return dst
		}
		n--
		sym = stack[n]
	}
}

func (d *onpairDict) Extract(id uint32) string {
	return string(d.AppendExtract(nil, id))
}

func (d *onpairDict) AppendExtract(dst []byte, id uint32) []byte { return d.appendID(dst, id, nil) }

// appendID appends string id to dst. Given a memo, pair j is expanded
// the first time it is met and an exact-size copy kept in memo[j], so the
// memo never holds more bytes than the walk has emitted.
func (d *onpairDict) appendID(dst []byte, id uint32, memo [][]byte) []byte {
	lo, hi := int(d.offsets.Get(int(id))), int(d.offsets.Get(int(id)+1))
	for i := lo; i < hi; i++ {
		switch sym := uint32(d.syms.Get(i)); {
		case sym < 256:
			dst = append(dst, byte(sym))
		case memo != nil && memo[sym-256] != nil:
			dst = append(dst, memo[sym-256]...)
		default:
			start := len(dst)
			dst = d.appendSymbol(dst, sym)
			if memo != nil {
				memo[sym-256] = append(make([]byte, 0, len(dst)-start), dst[start:]...)
			}
		}
	}
	return dst
}

// ForEach walks by extract through a memo, so each pair is expanded once.
func (d *onpairDict) ForEach(fn func(id uint32, value []byte) bool) {
	forEachByExtract(&onpairWalk{d, make([][]byte, len(d.pairs))}, d.n, fn)
}

// onpairWalk is one walk's extractor; memo[j] is nil until pair j is met.
type onpairWalk struct {
	d    *onpairDict
	memo [][]byte
}

func (w *onpairWalk) AppendExtract(b []byte, id uint32) []byte { return w.d.appendID(b, id, w.memo) }

func (d *onpairDict) Locate(s string) (uint32, bool) {
	return locateByExtract(d, d.n, s)
}

func (d *onpairDict) Len() int       { return d.n }
func (d *onpairDict) Format() Format { return OnPair }

func (d *onpairDict) Bytes() uint64 {
	return 4*uint64(len(d.pairs)) + d.syms.Bytes() + d.offsets.Bytes() + arrayOverhead
}

// OnPairStats trains the pair table over strs and reports the components
// the size-prediction model needs: the number of pair-table entries, the
// total number of encoded symbols, and the packed bit width of the symbol
// stream. It runs the real build's trainer, which makes the model exact on
// a full sample, but packs neither the symbol stream nor the offsets.
func OnPairStats(strs []string) (pairs, symbols int, symWidth uint) {
	p, syms, _ := trainOnPair(strs)
	return len(p), len(syms), symWidthOf(syms)
}

func marshalOnPair(e *enc, dict Dictionary) error {
	d, ok := dict.(*onpairDict)
	if !ok {
		return errWrongType(dict)
	}
	e.u64(uint64(d.n))
	e.u64(uint64(len(d.pairs)))
	for _, p := range d.pairs {
		e.u32(p)
	}
	e.packed(d.syms)
	e.packed(d.offsets)
	return nil
}

func unmarshalOnPair(d *dec) (Dictionary, error) {
	n := d.u64()
	npairs := d.u64()
	if d.err != nil || npairs > OnPairMaxPairs || n > 1<<40 {
		return nil, ErrCorrupt
	}
	pairs := make([]uint32, npairs)
	for j := range pairs {
		pairs[j] = d.u32()
	}
	syms := d.packed()
	offsets := d.packed()
	if d.err != nil {
		return nil, d.err
	}
	od := &onpairDict{n: int(n), pairs: pairs, syms: syms, offsets: offsets}
	if err := od.validate(); err != nil {
		return nil, err
	}
	return od, nil
}

// validate checks the structural invariants that make reads safe and
// guarantee expansion terminates: the offsets are monotonic and cover the
// symbol stream, every symbol is in range, and pair j only references symbols
// below 256+j and is at most onpairRounds deep, as built: that bounds
// AppendExtract's stack, and a pair d deep expands to at most 2^d bytes.
func (d *onpairDict) validate() error {
	maxSym := uint64(256 + len(d.pairs))
	depth := make([]uint8, maxSym) // literals are depth 0
	for j, p := range d.pairs {
		limit := uint32(256 + j)
		if p>>16 >= limit || p&0xffff >= limit {
			return ErrCorrupt
		}
		if depth[limit] = 1 + max(depth[p>>16], depth[p&0xffff]); depth[limit] > onpairRounds {
			return ErrCorrupt
		}
	}
	if d.offsets.Len() != d.n+1 {
		return ErrCorrupt
	}
	prev := uint64(0)
	for i := 0; i <= d.n; i++ {
		v := d.offsets.Get(i)
		if v < prev || v > uint64(d.syms.Len()) {
			return ErrCorrupt
		}
		prev = v
	}
	if prev != uint64(d.syms.Len()) || (d.n > 0 && d.offsets.Get(0) != 0) {
		return ErrCorrupt
	}
	for i := 0; i < d.syms.Len(); i++ {
		if d.syms.Get(i) >= maxSym {
			return ErrCorrupt
		}
	}
	return nil
}
