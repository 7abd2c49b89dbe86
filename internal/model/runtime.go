package model

import (
	"math"
	"math/rand"
	"time"

	"strdict/internal/dict"
)

// Costs holds the runtime constants of one dictionary format, per
// Section 4.1: a constant time per extract call, per locate call, and per
// tuple for construction. The paper found that this simplistic model is as
// robust as more sophisticated ones.
type Costs struct {
	ExtractNs   float64 // ns per extract
	LocateNs    float64 // ns per locate
	ConstructNs float64 // ns per string during construction
}

// CostTable holds every format's runtime constants, indexed by Format.
type CostTable struct {
	costs []Costs
}

// NewCostTable returns a table with every format's constants zero.
func NewCostTable() *CostTable {
	return &CostTable{costs: make([]Costs, dict.NumFormats())}
}

// Of returns the constants of a format.
func (t *CostTable) Of(f dict.Format) Costs { return t.costs[f] }

// Set installs the constants of a format.
func (t *CostTable) Set(f dict.Format, c Costs) { t.costs[f] = c }

// TimeNs computes the total time (ns) a dictionary instance of format f
// spends in its three methods over its lifetime, per Section 5.2:
//
//	time(d) = #extracts·t_e(d) + #locates·t_l(d) + #strings·t_c(d)
func (t *CostTable) TimeNs(f dict.Format, extracts, locates, numStrings uint64) float64 {
	c := t.costs[f]
	return float64(extracts)*c.ExtractNs +
		float64(locates)*c.LocateNs +
		float64(numStrings)*c.ConstructNs
}

// Calibrate determines the runtime constants with microbenchmarks, as the
// paper does at installation time: every format is measured on each corpus
// (Measure) and the constants are the averages across corpora.
//
// Corpora should be sorted unique string sets of a few thousand entries;
// pass datagen corpora for the paper's setup.
func Calibrate(corpora [][]string) *CostTable {
	if len(corpora) == 0 {
		return DefaultCostTable()
	}
	table := NewCostTable()
	n := float64(len(corpora))
	for _, f := range dict.AllFormats() {
		var sum Costs
		for _, strs := range corpora {
			_, c := Measure(f, strs, 1)
			sum.ExtractNs += c.ExtractNs / n
			sum.LocateNs += c.LocateNs / n
			sum.ConstructNs += c.ConstructNs / n
		}
		table.Set(f, sum)
	}
	return table
}

// The measurement policy every runtime figure shares: Calibrate, the runtime
// model comparison and the experiments' surveys all time through Measure, so
// the cost table and the figures that check its orderings measure the same
// thing.
const (
	measureRounds = 3    // each constant is the minimum over this many rounds
	measureOps    = 2000 // random extracts per round; locates are a quarter of it
)

// Measure builds format f over strs and times it the way Section 4.1 derives
// its runtime constants: construction per string, single-tuple extracts of
// random ids and locates of random present strings, all drawn from seed
// before any timing. Every round rebuilds the dictionary and times all three;
// each constant is its minimum over the rounds, since load from other
// processes only ever adds time. It returns the last dictionary built.
func Measure(f dict.Format, strs []string, seed int64) (dict.Dictionary, Costs) {
	n := len(strs)
	if n == 0 {
		return dict.BuildUnchecked(f, strs), Costs{}
	}
	rng := rand.New(rand.NewSource(seed))
	ids := make([]uint32, measureOps)
	for i := range ids {
		ids[i] = uint32(rng.Intn(n))
	}
	probes := make([]string, measureOps/4)
	for i := range probes {
		probes[i] = strs[rng.Intn(n)]
	}
	var d dict.Dictionary
	var buf []byte
	best := Costs{math.Inf(1), math.Inf(1), math.Inf(1)}
	for r := 0; r < measureRounds; r++ {
		construct := nsPerOp(n, func() { d = dict.BuildUnchecked(f, strs) })
		extract := nsPerOp(len(ids), func() {
			for _, id := range ids {
				buf = d.AppendExtract(buf[:0], id)
			}
		})
		locate := nsPerOp(len(probes), func() {
			for _, p := range probes {
				d.Locate(p)
			}
		})
		best = Costs{min(best.ExtractNs, extract), min(best.LocateNs, locate), min(best.ConstructNs, construct)}
	}
	return d, best
}

// nsPerOp runs fn once and spreads its wall time over ops operations.
func nsPerOp(ops int, fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// DefaultCostTable returns constants measured once with Calibrate over the
// datagen corpora on the reference development machine. They encode the
// relative ordering the paper reports (uncompressed array variants fastest,
// fixed-width schemes in the middle, Huffman slower, Re-Pair slowest;
// front coding pays a block-walk on top) and are good enough for format
// selection when running Calibrate at start-up is not wanted.
func DefaultCostTable() *CostTable {
	t := NewCostTable()
	set := func(f dict.Format, e, l, c float64) { t.Set(f, Costs{e, l, c}) }
	// format, extract ns, locate ns, construct ns/string — output of
	// `figures -figure calibrate` on the reference machine.
	set(dict.Array, 28, 435, 126)
	set(dict.ArrayBC, 287, 719, 364)
	set(dict.ArrayHU, 294, 741, 404)
	set(dict.ArrayNG2, 159, 2527, 1747)
	set(dict.ArrayNG3, 125, 1994, 1812)
	set(dict.ArrayRP12, 260, 3142, 6603)
	set(dict.ArrayRP16, 278, 4951, 6906)
	set(dict.ArrayFixed, 17, 288, 13)
	set(dict.FCBlock, 157, 1299, 132)
	set(dict.FCBlockBC, 922, 8183, 258)
	set(dict.FCBlockDF, 46, 811, 134)
	set(dict.FCBlockHU, 1248, 12577, 338)
	set(dict.FCBlockNG2, 801, 14044, 894)
	set(dict.FCBlockNG3, 1602, 8006, 1454)
	set(dict.FCBlockRP12, 1381, 9359, 4171)
	set(dict.FCBlockRP16, 1391, 8052, 3626)
	set(dict.FCInline, 159, 1357, 116)
	set(dict.ColumnBC, 278, 4056, 471)
	// The extensions: LZ78's parent-chain walks price extraction between the
	// array and front-coded classes and its shared-trie parse builds fast;
	// OnPair's pair expansion keeps extraction near the array formats and
	// its promotion rounds dominate construction. Both locate by the
	// generic binary search.
	set(dict.LZ78, 176, 3696, 201)
	set(dict.OnPair, 171, 3631, 663)
	return t
}
