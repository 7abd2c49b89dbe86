package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"strdict/internal/datagen"
)

// Everything the workloads feed the program is made here from the seed,
// before any timing starts, together with the answer the program must give:
// the generator keeps each table's value → rows map as it emits rows and
// operations, so every operation carries its expected result.

const (
	zipfS      = 1.2
	absentFrac = 0.10 // share of query probes naming a value the column lacks
	freshFrac  = 0.20 // share of appended rows carrying a value new to the column
	rangeRows  = 1000 // a range scan matches at most this many rows
	rangeSpan  = 64   // ... and spans at most this many distinct values
	payloadCol = "payload"
	// maxScanRows is the service's default cap on returned row indices.
	maxScanRows = 10000
)

// svcCorpora are the datagen corpora the service tables draw payloads from.
var svcCorpora = []string{"url", "engl", "src", "hash"}

type opKind uint8

const (
	opCount opKind = iota
	opLocate
	opScanEq
	opScanRange
	opAppend
	numOpKinds
)

var opKindNames = [numOpKinds]string{"count", "locate", "scan_eq", "scan_range", "append"}

// op is one client operation with its expected answer.
type op struct {
	kind   opKind
	tab    *tableData
	lo, hi string   // the probe (lo) or the range [lo, hi)
	vals   []string // opAppend: the batch

	wantCount int    // matching rows
	wantHash  uint64 // hashRows over the first maxScanRows expected rows
	// wantFound and wantCode are the expected /v1/locate answer; -1 where
	// it depends on which merges have run (svc-mixed).
	wantFound int8
	wantCode  int64
}

// tableData is the generator's model of one (tenant, table): the sorted
// universe of values the table may ever see and the rows holding each.
type tableData struct {
	id            int
	tenant, table string
	pool          []string  // sorted distinct universe (pool index = sort rank)
	rows          [][]int32 // pool index → ascending row positions
	nrows         int
	base          []int32 // pool indices loaded at set-up, in Zipf rank order
	fresh         []int32 // pool indices appends introduce, consumed in order
	absent        []int32 // pool indices no row ever carries
	rawBytes      uint64  // bytes of every value appended so far
	baseSeq       []int32 // set-up rows, as pool indices in row order
}

// newTableData draws a table over `distinct` base values, `fresh` values
// reserved for appends and a handful of absent probes, then lays out `rows`
// base rows: every base value once, the rest Zipf over the base ranks.
//
// The pool is the same for every seed (the corpus seed is the table id); the
// seed decides which values are base, fresh or absent, their Zipf ranks and
// the row order.
func newTableData(id int, tenant, table, corpus string, rows, distinct, fresh int, seed int64) *tableData {
	nAbsent := distinct/20 + 16
	pool := datagen.Generate(corpus, distinct+fresh+nAbsent, int64(id))
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	perm := rng.Perm(len(pool))
	// datagen returns "about n" strings; scale the three classes to fit.
	scale := float64(len(pool)) / float64(distinct+fresh+nAbsent)
	nBase := int(float64(distinct) * scale)
	nFresh := int(float64(fresh) * scale)
	t := &tableData{id: id, tenant: tenant, table: table, pool: pool, rows: make([][]int32, len(pool))}
	for i, p := range perm {
		switch {
		case i < nBase:
			t.base = append(t.base, int32(p))
		case i < nBase+nFresh:
			t.fresh = append(t.fresh, int32(p))
		default:
			t.absent = append(t.absent, int32(p))
		}
	}
	if rows < nBase {
		rows = nBase
	}
	t.baseSeq = make([]int32, 0, rows)
	t.baseSeq = append(t.baseSeq, t.base...)
	z := rand.NewZipf(rng, zipfS, 1, uint64(nBase-1))
	for len(t.baseSeq) < rows {
		t.baseSeq = append(t.baseSeq, t.base[z.Uint64()])
	}
	rng.Shuffle(len(t.baseSeq), func(i, j int) { t.baseSeq[i], t.baseSeq[j] = t.baseSeq[j], t.baseSeq[i] })
	for _, idx := range t.baseSeq {
		t.appendRow(idx)
	}
	return t
}

func (t *tableData) appendRow(idx int32) {
	t.rows[idx] = append(t.rows[idx], int32(t.nrows))
	t.nrows++
	t.rawBytes += uint64(len(t.pool[idx]))
}

// hashRows is the order-sensitive digest scan answers are compared by.
func hashRows[T int | int32](h uint64, rows []T) uint64 {
	for _, r := range rows {
		h = (h ^ uint64(r)) * 1099511628211
	}
	return h
}

const hashSeed = 14695981039346656037

// opGen emits one session's operations over its tables.
type opGen struct {
	rng    *rand.Rand
	tabs   []*tableData
	zipf   []*rand.Zipf // per table, over its base ranks
	batch  int
	static bool // no appends: locate answers are exact
	ranks  map[*tableData][]int64
}

func newOpGen(seed int64, tabs []*tableData, batch int, static bool) *opGen {
	g := &opGen{rng: rand.New(rand.NewSource(seed)), tabs: tabs, batch: batch, static: static}
	for _, t := range tabs {
		g.zipf = append(g.zipf, rand.NewZipf(g.rng, zipfS, 1, uint64(len(t.base)-1)))
	}
	if static {
		// Prefix counts make rank O(1) while the tables do not change.
		g.ranks = make(map[*tableData][]int64)
		for _, t := range tabs {
			pre := make([]int64, len(t.pool)+1)
			for i := range t.pool {
				pre[i+1] = pre[i]
				if len(t.rows[i]) > 0 {
					pre[i+1]++
				}
			}
			g.ranks[t] = pre
		}
	}
	return g
}

// probe picks a value to ask about: Zipf over the base values, or with
// probability absentFrac a value the table never holds.
func (g *opGen) probe(ti int) int32 {
	t := g.tabs[ti]
	if g.rng.Float64() < absentFrac {
		return t.absent[g.rng.Intn(len(t.absent))]
	}
	return t.base[g.zipf[ti].Uint64()]
}

// query emits one read of the mix: 50% count, 25% locate, 15% scan eq,
// 10% narrow scan range.
func (g *opGen) query() op {
	ti := g.rng.Intn(len(g.tabs))
	t := g.tabs[ti]
	o := op{tab: t, wantFound: -1, wantCode: -1}
	switch r := g.rng.Float64(); {
	case r < 0.50:
		o.kind = opCount
	case r < 0.75:
		o.kind = opLocate
	case r < 0.90:
		o.kind = opScanEq
	default:
		o.kind = opScanRange
	}
	if o.kind == opScanRange {
		lo := g.rng.Intn(len(t.pool) - 1)
		hi, n := lo, 0
		for hi < len(t.pool)-1 && hi-lo < rangeSpan && n+len(t.rows[hi]) <= rangeRows {
			n += len(t.rows[hi])
			hi++
		}
		o.lo, o.hi = t.pool[lo], t.pool[hi]
		var want []int32
		for i := lo; i < hi; i++ {
			want = append(want, t.rows[i]...)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		o.wantCount, o.wantHash = len(want), hashRows(hashSeed, want)
		return o
	}
	idx := g.probe(ti)
	o.lo = t.pool[idx]
	rows := t.rows[idx]
	o.wantCount = len(rows)
	if len(rows) > maxScanRows {
		rows = rows[:maxScanRows]
	}
	o.wantHash = hashRows(hashSeed, rows)
	if o.kind == opLocate {
		// Probes are base values (merged at set-up) or absent ones, so found
		// is known; the value ID only while no merge can renumber it.
		o.wantFound = 0
		if o.wantCount > 0 {
			o.wantFound = 1
		}
		if g.static {
			o.wantCode = g.ranks[t][idx]
		}
	}
	return o
}

// appendBatch emits one batch of n rows for table ti of the session and
// applies it to the model: freshFrac of the rows introduce a new value,
// the rest repeat base values Zipf-distributed.
func (g *opGen) appendBatch(ti, n int) op {
	t := g.tabs[ti]
	o := op{kind: opAppend, tab: t, vals: make([]string, n), wantCount: n, wantFound: -1, wantCode: -1}
	for i := range o.vals {
		var idx int32
		if len(t.fresh) > 0 && g.rng.Float64() < freshFrac {
			idx, t.fresh = t.fresh[0], t.fresh[1:]
		} else {
			idx = t.base[g.zipf[ti].Uint64()]
		}
		o.vals[i] = t.pool[idx]
		t.appendRow(idx)
	}
	return o
}

// sequence emits n operations, writeFrac of them append batches.
func (g *opGen) sequence(n int, writeFrac float64) []op {
	ops := make([]op, 0, n)
	for len(ops) < n {
		if g.rng.Float64() < writeFrac {
			ops = append(ops, g.appendBatch(g.rng.Intn(len(g.tabs)), g.batch))
		} else {
			ops = append(ops, g.query())
		}
	}
	return ops
}

// seqHash digests operation sequences: same seed, same hash.
func seqHash(sessions [][]op) string {
	h := fnv.New64a()
	for _, ops := range sessions {
		for i := range ops {
			o := &ops[i]
			fmt.Fprintf(h, "%d|%d|%s|%s|%d|", o.kind, o.tab.id, o.lo, o.hi, len(o.vals))
			for _, v := range o.vals {
				h.Write([]byte(v))
				h.Write([]byte{0})
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
