package repair

// The container/heap- and map-based trainer the flat one in repair.go
// replaced, kept verbatim as the reference implementation: the flat trainer
// must derive the same rules and sequences for every input, tie-breaks
// included (checkPrefix: TestRepair12IsPrefixOf16, FuzzRepairPrefix).

import "container/heap"

// trainReference is Train as it was before the flat trainer.
func trainReference(parts [][]byte, symbolBits uint) ([]Rule, [][]int32) {
	tr := newRefTrainer(parts, symbolBits)
	tr.run()
	return tr.rules, tr.sequences(len(parts))
}

// refRec tracks the occurrences of one active pair.
type refRec struct {
	key     uint64
	count   int32
	head    int32 // first occurrence position (position of the left symbol)
	heapIdx int
}

type refHeap []*refRec

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].count > h[j].count }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *refHeap) Push(x interface{}) { r := x.(*refRec); r.heapIdx = len(*h); *h = append(*h, r) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	r := old[n-1]
	*h = old[:n-1]
	return r
}

type refTrainer struct {
	seq        []int32
	next, prev []int32 // active doubly-linked list over positions
	nextOcc    []int32 // occurrence-list threading, keyed by position
	prevOcc    []int32
	recs       map[uint64]*refRec
	pq         refHeap
	rules      []Rule
	maxSym     int32
}

func refKey(a, b int32) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func newRefTrainer(parts [][]byte, symbolBits uint) *refTrainer {
	n := 0
	for _, p := range parts {
		n += len(p) + 1 // +1 separator after each part
	}
	tr := &refTrainer{
		seq:     make([]int32, 0, n),
		recs:    make(map[uint64]*refRec),
		maxSym:  int32(1<<symbolBits) - 1,
		nextOcc: make([]int32, n),
		prevOcc: make([]int32, n),
	}
	for _, p := range parts {
		for _, b := range p {
			tr.seq = append(tr.seq, int32(b))
		}
		tr.seq = append(tr.seq, sep)
	}
	m := len(tr.seq)
	tr.next = make([]int32, m)
	tr.prev = make([]int32, m)
	for i := 0; i < m; i++ {
		tr.next[i] = int32(i + 1)
		tr.prev[i] = int32(i - 1)
		tr.nextOcc[i] = none
		tr.prevOcc[i] = none
	}
	if m > 0 {
		tr.next[m-1] = none
	}
	// Register every adjacent pair not involving a separator.
	for i := 0; i+1 < m; i++ {
		tr.addOcc(int32(i))
	}
	heap.Init(&tr.pq)
	return tr
}

// registered reports whether position p currently heads a trackable pair.
func (tr *refTrainer) registered(p int32) bool {
	if p < 0 || tr.seq[p] < 0 {
		return false
	}
	q := tr.next[p]
	return q >= 0 && tr.seq[q] >= 0
}

// addOcc registers the pair starting at position p, if trackable.
func (tr *refTrainer) addOcc(p int32) {
	if !tr.registered(p) {
		return
	}
	q := tr.next[p]
	key := refKey(tr.seq[p], tr.seq[q])
	rec := tr.recs[key]
	if rec == nil {
		rec = &refRec{key: key, head: none}
		tr.recs[key] = rec
		heap.Push(&tr.pq, rec)
	}
	// Push-front onto the occurrence list.
	tr.nextOcc[p] = rec.head
	tr.prevOcc[p] = none
	if rec.head != none {
		tr.prevOcc[rec.head] = p
	}
	rec.head = p
	rec.count++
	heap.Fix(&tr.pq, rec.heapIdx)
}

// removeOcc unregisters the pair currently starting at position p.
// It must be called before the symbols at p or next[p] are mutated.
func (tr *refTrainer) removeOcc(p int32) {
	if !tr.registered(p) {
		return
	}
	q := tr.next[p]
	key := refKey(tr.seq[p], tr.seq[q])
	rec := tr.recs[key]
	if rec == nil {
		return
	}
	if tr.prevOcc[p] != none {
		tr.nextOcc[tr.prevOcc[p]] = tr.nextOcc[p]
	} else if rec.head == p {
		rec.head = tr.nextOcc[p]
	} else {
		return // p was not on this list (defensive; should not happen)
	}
	if tr.nextOcc[p] != none {
		tr.prevOcc[tr.nextOcc[p]] = tr.prevOcc[p]
	}
	tr.nextOcc[p] = none
	tr.prevOcc[p] = none
	rec.count--
	heap.Fix(&tr.pq, rec.heapIdx)
}

func (tr *refTrainer) run() {
	nextSym := int32(firstRuleSym)
	for len(tr.pq) > 0 && nextSym <= tr.maxSym {
		top := tr.pq[0]
		if top.count < 2 {
			break
		}
		a := int32(uint32(top.key >> 32))
		b := int32(uint32(top.key))
		tr.rules = append(tr.rules, Rule{Left: a, Right: b})
		newSym := nextSym
		nextSym++
		for top.count > 0 {
			tr.replaceAt(top.head, newSym)
		}
		// Drop the exhausted record.
		heap.Remove(&tr.pq, top.heapIdx)
		delete(tr.recs, top.key)
	}
}

// replaceAt rewrites the pair starting at position p with newSym, keeping
// all occurrence lists consistent.
func (tr *refTrainer) replaceAt(p, newSym int32) {
	q := tr.next[p]
	lp := tr.prev[p]
	r := tr.next[q]

	// Unregister the three pairs whose symbols are about to change:
	// (left-neighbour, a), (a, b) itself, and (b, right-neighbour).
	tr.removeOcc(p)
	if lp != none {
		tr.removeOcc(lp)
	}
	tr.removeOcc(q)

	tr.seq[p] = newSym
	tr.seq[q] = hole
	tr.next[p] = r
	if r != none {
		tr.prev[r] = p
	}

	// Register the pairs formed with the new symbol.
	if lp != none {
		tr.addOcc(lp)
	}
	tr.addOcc(p)
}

// sequences extracts the per-part compressed symbol sequences by walking the
// active list and splitting at separators.
func (tr *refTrainer) sequences(nParts int) [][]int32 {
	out := make([][]int32, 0, nParts)
	var cur []int32
	for i := 0; i < len(tr.seq); i++ {
		s := tr.seq[i]
		switch {
		case s == hole:
			// skip
		case s == sep:
			out = append(out, cur)
			cur = nil
		default:
			cur = append(cur, s)
		}
	}
	return out
}
