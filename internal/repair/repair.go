// Package repair implements Re-Pair grammar compression (Larsson & Moffat,
// DCC 1999): the most frequent adjacent symbol pair is repeatedly replaced
// by a fresh non-terminal until no pair occurs at least twice or the symbol
// space is exhausted.
//
// It realizes the paper's `rp 12` and `rp 16` string compression schemes:
// symbols are stored with 12 or 16 fixed bits, terminals are the 256 byte
// values, symbol 256 is a reserved end-of-string marker and non-terminals
// start at 257 (so a 12-bit grammar holds up to 3839 rules).
//
// The grammar is trained once over the whole dictionary (string boundaries
// are separated by sentinels that pairs can never cross) and each string
// keeps its own compressed symbol sequence, so a single string can be
// extracted without touching its neighbours — a stated requirement of the
// paper's dictionary formats.
package repair

import (
	"fmt"

	"strdict/internal/bits"
)

// EOS is the reserved end-of-string symbol.
const EOS = 256

// firstRuleSym is the symbol number of the first grammar rule.
const firstRuleSym = 257

// Rule expands a non-terminal into its two child symbols.
type Rule struct {
	Left, Right int32
}

// Grammar is a trained Re-Pair grammar.
type Grammar struct {
	symbolBits uint
	rules      []Rule
}

// SymbolBits returns the fixed symbol width (12 or 16).
func (g *Grammar) SymbolBits() uint { return g.symbolBits }

// RuleCount returns the number of rules in the grammar.
func (g *Grammar) RuleCount() int { return len(g.rules) }

// MaxExpansion bounds the bytes one rule expands to. Training never forms a
// longer rule, and FromRules rejects one, so a rule table read from bytes
// cannot make Expand produce 2^i bytes from i rules (rule i = (i-1, i-1)).
const MaxExpansion = 1 << 16

// MaxRules returns the rule capacity for a symbol width.
func MaxRules(symbolBits uint) int {
	return (1 << symbolBits) - firstRuleSym
}

// Train builds a grammar over the given parts and returns it together with
// the compressed symbol sequence of every part. symbolBits must be 12 or 16.
func Train(parts [][]byte, symbolBits uint) (*Grammar, [][]int32) {
	if symbolBits != 12 && symbolBits != 16 {
		panic("repair: symbolBits must be 12 or 16")
	}
	tr := newTrainer(parts)
	tr.run(MaxRules(symbolBits))
	return &Grammar{symbolBits: symbolBits, rules: tr.rules}, tr.sequences()
}

// Cut is what a size model reads off a training run stopped at one symbol
// width: the number of rules created and every part's sequence length.
type Cut struct {
	Rules   int
	SeqLens []int32
}

// TrainStats trains once and reports the run's state where a 12-bit grammar
// is full and again at the 16-bit end. Rule creation is deterministic and
// the width only bounds the rule count, so the 12-bit training is exactly
// the 16-bit one stopped after MaxRules(12) rules: at12 and at16 equal what
// Train(parts, 12) and Train(parts, 16) would yield, from a single run and
// without materializing any symbol sequence.
func TrainStats(parts [][]byte) (at12, at16 Cut) {
	tr := newTrainer(parts)
	tr.run(MaxRules(12))
	at12 = Cut{Rules: len(tr.rules), SeqLens: tr.seqLens()}
	tr.run(MaxRules(16))
	at16 = at12
	if len(tr.rules) > at12.Rules {
		at16 = Cut{Rules: len(tr.rules), SeqLens: tr.seqLens()}
	}
	return at12, at16
}

const (
	sep  = int32(-1) // string boundary sentinel
	hole = int32(-2) // removed position
	none = int32(-3) // list terminator
)

// pairRec tracks the occurrences of one active pair. Records live in one
// flat slice and are referred to by index.
type pairRec struct {
	a, b    int32 // the pair's symbols
	head    int32 // first occurrence position (position of the left symbol)
	heapIdx int32 // position in trainer.pq, where the pair's count lives
}

// heapEnt is one queue entry. The count sits here, not in the record, so
// sifting compares neighbouring array elements only.
type heapEnt struct {
	count, rec int32
}

// position is one cell of the symbol sequence together with its links.
type position struct {
	sym              int32
	next, prev       int32 // neighbours in the sequence, skipping holes
	nextOcc, prevOcc int32 // neighbours on the pair's occurrence list
	rec              int32 // record of the pair registered here, or none
}

// trainer is the Re-Pair working state, all of it flat: the positions, the
// pair records, an open-addressed index from pair to record, and a binary
// max-heap of records by count.
//
// Which of several equally frequent pairs becomes the next rule is decided
// by the heap's layout, so up, down and the removal in run perform exactly
// the sift steps container/heap's Push, Fix and Remove would: the grammar is
// a pure function of the input, pinned by testdata/rules.golden.
type trainer struct {
	nParts int
	pos    []position
	recs   []pairRec
	slots  []int32   // open addressing: record index + 1, 0 = empty
	shift  uint      // 64 - log2(len(slots))
	pq     []heapEnt // binary max-heap by count
	rules  []Rule
}

func newTrainer(parts [][]byte) *trainer {
	m := len(parts) // one separator after each part
	for _, p := range parts {
		m += len(p)
	}
	tr := &trainer{nParts: len(parts), pos: make([]position, 0, m)}
	add := func(sym int32) {
		i := int32(len(tr.pos))
		tr.pos = append(tr.pos, position{sym: sym, next: i + 1, prev: i - 1, nextOcc: none, prevOcc: none, rec: none})
	}
	for _, p := range parts {
		for _, b := range p {
			add(int32(b))
		}
		add(sep)
	}
	if m > 0 {
		tr.pos[m-1].next = none
	}
	// Text has far fewer distinct pairs than positions; the tables double
	// on demand beyond this.
	slots := 256
	for slots < m/4 {
		slots *= 2
	}
	tr.resize(slots)
	// Register every adjacent pair not involving a separator.
	for i := 0; i+1 < m; i++ {
		tr.addOcc(int32(i))
	}
	return tr
}

// slot returns the index into slots where the pair (a, b) is or belongs.
func (tr *trainer) slot(a, b int32) int {
	mask := len(tr.slots) - 1
	i := int((uint64(uint32(a))<<32 | uint64(uint32(b))) * 0x9E3779B97F4A7C15 >> tr.shift)
	for {
		ri := tr.slots[i]
		if ri == 0 || (tr.recs[ri-1].a == a && tr.recs[ri-1].b == b) {
			return i
		}
		i = (i + 1) & mask
	}
}

// resize rebuilds the index with n slots (a power of two) and makes room
// for the n/2 records it may hold before it is resized again. Records of
// pairs that became rules are left out of the index: such a pair never
// occurs again.
func (tr *trainer) resize(n int) {
	tr.slots = make([]int32, n)
	tr.recs = append(make([]pairRec, 0, n/2), tr.recs...)
	tr.pq = append(make([]heapEnt, 0, n/2), tr.pq...)
	tr.shift = 64
	for ; n > 1; n >>= 1 {
		tr.shift--
	}
	for ri := range tr.recs {
		if r := &tr.recs[ri]; r.heapIdx >= 0 {
			tr.slots[tr.slot(r.a, r.b)] = int32(ri + 1)
		}
	}
}

func (tr *trainer) less(i, j int) bool { return tr.pq[i].count > tr.pq[j].count }

func (tr *trainer) swap(i, j int) {
	tr.pq[i], tr.pq[j] = tr.pq[j], tr.pq[i]
	tr.recs[tr.pq[i].rec].heapIdx = int32(i)
	tr.recs[tr.pq[j].rec].heapIdx = int32(j)
}

func (tr *trainer) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !tr.less(j, i) {
			break
		}
		tr.swap(i, j)
		j = i
	}
}

func (tr *trainer) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && tr.less(j2, j1) {
			j = j2
		}
		if !tr.less(j, i) {
			break
		}
		tr.swap(i, j)
		i = j
	}
	return i > i0
}

// addOcc registers the pair starting at position p, if there is one: both
// p and its successor must hold symbols.
func (tr *trainer) addOcc(p int32) {
	if p < 0 || tr.pos[p].sym < 0 {
		return
	}
	q := tr.pos[p].next
	if q < 0 || tr.pos[q].sym < 0 {
		return
	}
	a, b := tr.pos[p].sym, tr.pos[q].sym
	si := tr.slot(a, b)
	ri := tr.slots[si] - 1
	if ri < 0 {
		if 2*len(tr.recs) >= len(tr.slots) {
			tr.resize(2 * len(tr.slots))
			si = tr.slot(a, b)
		}
		ri = int32(len(tr.recs))
		tr.recs = append(tr.recs, pairRec{a: a, b: b, head: none, heapIdx: int32(len(tr.pq))})
		tr.slots[si] = ri + 1
		tr.pq = append(tr.pq, heapEnt{rec: ri})
	}
	rec := &tr.recs[ri]
	// Push-front onto the occurrence list.
	at := &tr.pos[p]
	at.nextOcc, at.prevOcc, at.rec = rec.head, none, ri
	if rec.head != none {
		tr.pos[rec.head].prevOcc = p
	}
	rec.head = p
	tr.pq[rec.heapIdx].count++
	tr.up(int(rec.heapIdx)) // a grown count can only rise
}

// removeOcc unregisters the pair currently starting at position p, if one
// is registered there. It must be called before the symbols at p or its
// successor are mutated.
func (tr *trainer) removeOcc(p int32) {
	if p < 0 || tr.pos[p].rec == none {
		return
	}
	at := &tr.pos[p]
	rec := &tr.recs[at.rec]
	if at.prevOcc != none {
		tr.pos[at.prevOcc].nextOcc = at.nextOcc
	} else {
		rec.head = at.nextOcc
	}
	if at.nextOcc != none {
		tr.pos[at.nextOcc].prevOcc = at.prevOcc
	}
	at.nextOcc, at.prevOcc, at.rec = none, none, none
	tr.pq[rec.heapIdx].count--
	tr.down(int(rec.heapIdx), len(tr.pq)) // a shrunk count can only sink
}

// run creates rules until no pair occurs twice or the grammar holds maxRules
// rules. It can be called again with a larger bound to continue the run.
func (tr *trainer) run(maxRules int) {
	for len(tr.pq) > 0 && len(tr.rules) < maxRules {
		if tr.pq[0].count < 2 {
			break
		}
		ti := tr.pq[0].rec
		// Positions are input byte offsets, so an occurrence at p spans the
		// bytes up to the position after its right symbol (a separator at
		// the latest). A pair too long to become a rule has its occurrences
		// unregistered, which sinks its record to a count of zero.
		if p := tr.recs[ti].head; tr.pos[tr.pos[p].next].next-p > MaxExpansion {
			for tr.recs[ti].head != none {
				tr.removeOcc(tr.recs[ti].head)
			}
			continue
		}
		tr.rules = append(tr.rules, Rule{Left: tr.recs[ti].a, Right: tr.recs[ti].b})
		newSym := int32(firstRuleSym + len(tr.rules) - 1)
		for tr.pq[tr.recs[ti].heapIdx].count > 0 {
			tr.replaceAt(tr.recs[ti].head, newSym)
		}
		// Drop the exhausted record from the queue.
		top := &tr.recs[ti]
		i, n := int(top.heapIdx), len(tr.pq)-1
		if i != n {
			tr.swap(i, n)
			if !tr.down(i, n) {
				tr.up(i)
			}
		}
		tr.pq = tr.pq[:n]
		top.heapIdx = -1
	}
}

// replaceAt rewrites the pair starting at position p with newSym, keeping
// all occurrence lists consistent.
func (tr *trainer) replaceAt(p, newSym int32) {
	q := tr.pos[p].next
	lp := tr.pos[p].prev
	r := tr.pos[q].next

	// Unregister the three pairs whose symbols are about to change:
	// (left-neighbour, a), (a, b) itself, and (b, right-neighbour).
	tr.removeOcc(p)
	tr.removeOcc(lp)
	tr.removeOcc(q)

	tr.pos[p].sym = newSym
	tr.pos[q].sym = hole
	tr.pos[p].next = r
	if r != none {
		tr.pos[r].prev = p
	}

	// Register the pairs formed with the new symbol.
	tr.addOcc(lp)
	tr.addOcc(p)
}

// seqLens counts the symbols currently left in each part.
func (tr *trainer) seqLens() []int32 {
	lens := make([]int32, tr.nParts)
	part := 0
	for i := range tr.pos {
		switch s := tr.pos[i].sym; {
		case s == sep:
			part++
		case s != hole:
			lens[part]++
		}
	}
	return lens
}

// sequences extracts the per-part compressed symbol sequences, carved out
// of one backing array.
func (tr *trainer) sequences() [][]int32 {
	flat := make([]int32, 0, len(tr.pos)-tr.nParts)
	out := make([][]int32, 0, tr.nParts)
	start := 0
	for i := range tr.pos {
		switch s := tr.pos[i].sym; {
		case s == sep:
			out = append(out, flat[start:len(flat):len(flat)])
			start = len(flat)
		case s != hole:
			flat = append(flat, s)
		}
	}
	return out
}

// EncodeSeq appends the byte-aligned fixed-width encoding of a symbol
// sequence (EOS-terminated) to dst.
func (g *Grammar) EncodeSeq(dst []byte, seq []int32) []byte {
	var w bits.Writer
	for _, s := range seq {
		w.WriteBits(uint64(uint32(s)), g.symbolBits)
	}
	w.WriteBits(EOS, g.symbolBits)
	w.Align()
	return append(dst, w.Bytes()...)
}

// Expand appends the terminal expansion of sym to dst.
func (g *Grammar) Expand(dst []byte, sym int32) []byte {
	if sym < 256 {
		return append(dst, byte(sym))
	}
	// Iterative expansion with an explicit stack; right children are pushed
	// so terminals come out left to right.
	stack := make([]int32, 0, 32)
	stack = append(stack, sym)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for s >= firstRuleSym {
			rule := g.rules[s-firstRuleSym]
			stack = append(stack, rule.Right)
			s = rule.Left
		}
		if s == EOS {
			continue
		}
		dst = append(dst, byte(s))
	}
	return dst
}

// Decode appends the decoded string to dst, reading fixed-width symbols
// until EOS.
func (g *Grammar) Decode(dst []byte, enc []byte) []byte {
	return g.DecodeFrom(dst, bits.NewReader(enc))
}

// DecodeFrom decodes one EOS-terminated string from r, appending to dst.
func (g *Grammar) DecodeFrom(dst []byte, r *bits.Reader) []byte {
	limit := int32(firstRuleSym + len(g.rules))
	// A corrupt stream can run off its buffer before EOS; past the end the
	// reader yields zeros, a terminal, forever, so stop there.
	for r.Remaining() > 0 {
		s := int32(r.ReadBits(g.symbolBits))
		// EOS, or a symbol beyond the rule table (corrupt stream):
		// terminate defensively.
		if s == EOS || s >= limit {
			return dst
		}
		dst = g.Expand(dst, s)
	}
	return dst
}

// Encode compresses an arbitrary string with the trained grammar by applying
// the rules in creation order. The parse can differ from the training parse
// for strings of the corpus, but it always round-trips through Decode. This
// is a convenience for tests and ad-hoc probes; dictionary construction uses
// the training sequences from Train directly.
func (g *Grammar) Encode(dst []byte, src []byte) []byte {
	seq := make([]int32, len(src))
	for i, b := range src {
		seq[i] = int32(b)
	}
	for ri, rule := range g.rules {
		sym := int32(firstRuleSym + ri)
		out := seq[:0]
		for i := 0; i < len(seq); i++ {
			if i+1 < len(seq) && seq[i] == rule.Left && seq[i+1] == rule.Right {
				out = append(out, sym)
				i++
			} else {
				out = append(out, seq[i])
			}
		}
		seq = out
	}
	return g.EncodeSeq(dst, seq)
}

// TableBytes reports the in-memory footprint of the rule table.
func (g *Grammar) TableBytes() uint64 {
	return uint64(len(g.rules))*8 + 8
}

// Name identifies the scheme.
func (g *Grammar) Name() string {
	if g.symbolBits == 12 {
		return "rp12"
	}
	return "rp16"
}

// Rules returns the grammar's rule table, its serialized form.
func (g *Grammar) Rules() []Rule {
	return append([]Rule(nil), g.rules...)
}

// FromRules rebuilds a grammar from a serialized rule table, validating
// that every rule only references terminals or earlier rules (so expansion
// always terminates), expands to at most MaxExpansion bytes, and that the
// symbol space fits the width.
func FromRules(symbolBits uint, rules []Rule) (*Grammar, error) {
	if symbolBits != 12 && symbolBits != 16 {
		return nil, fmt.Errorf("repair: symbolBits must be 12 or 16")
	}
	if len(rules) > MaxRules(symbolBits) {
		return nil, fmt.Errorf("repair: %d rules exceed the %d-bit symbol space", len(rules), symbolBits)
	}
	lens := make([]int, len(rules))
	for i, r := range rules {
		limit := int32(firstRuleSym + i)
		for _, child := range []int32{r.Left, r.Right} {
			if child < 0 || child == EOS || child >= limit {
				return nil, fmt.Errorf("repair: rule %d has invalid child %d", i, child)
			}
			if child < EOS {
				lens[i]++ // a terminal
			} else {
				lens[i] += lens[child-firstRuleSym]
			}
		}
		if lens[i] > MaxExpansion { // its children are within it: no overflow
			return nil, fmt.Errorf("repair: rule %d expands to %d bytes, more than %d", i, lens[i], MaxExpansion)
		}
	}
	return &Grammar{symbolBits: symbolBits, rules: append([]Rule(nil), rules...)}, nil
}
