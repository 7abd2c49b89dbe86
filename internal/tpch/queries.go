package tpch

import (
	"fmt"
	"sort"
	"strconv"

	"strdict/internal/colstore"
)

// Result is a query's materialized output.
type Result struct {
	Query   int
	Columns []string
	Rows    [][]string
}

// Query is one of the 22 TPC-H queries, hand-written as a physical plan.
type Query struct {
	Number int
	Run    func(*colstore.Store) *Result
}

// plans are the 22 physical plans in query order. A plan reads the store
// through one colstore.View and nothing else.
var plans = [...]func(*colstore.View) *Result{
	plan1, plan2, plan3, plan4, plan5, plan6, plan7, plan8, plan9, plan10, plan11,
	plan12, plan13, plan14, plan15, plan16, plan17, plan18, plan19, plan20, plan21, plan22,
}

// Queries returns the 22 queries in order. Each Run opens one view on the
// store, runs the plan on it and releases it, so every value ID in a plan
// comes from one dictionary version per column and no plan can leave a
// snapshot pinned.
func Queries() []Query {
	qs := make([]Query, len(plans))
	for i, plan := range plans {
		qs[i] = Query{Number: i + 1, Run: func(s *colstore.Store) *Result {
			view := s.View()
			defer view.Release()
			return plan(view)
		}}
	}
	return qs
}

// RunAll executes all 22 queries once and returns their results.
func RunAll(s *colstore.Store) []*Result {
	qs := Queries()
	out := make([]*Result, 0, len(qs))
	for _, q := range qs {
		out = append(out, q.Run(s))
	}
	return out
}

// --- plan helpers ---

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// sortRows orders rows by the given less function and truncates to limit
// (limit <= 0 keeps everything).
func sortRows(rows [][]string, limit int, less func(a, b []string) bool) [][]string {
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// codeStreamChunk is the AppendCodeRange window width: one kernel call
// decodes this many main-part codes at once.
const codeStreamChunk = 256

// codeStream batch-decodes a string column's main-part value IDs for the
// row loops of the query plans: one AppendCodeRange kernel call per 256
// rows on the view's snapshot of the column, instead of one Vector.Get
// interface call per row. code is a drop-in for Snapshot.Code — delta rows
// (at or past MainRows) report ok=false with the same semantics. The window
// refills from whatever row misses, so filtered and restarted loops work
// too; ascending scans hit the window ~256 times per refill.
type codeStream struct {
	snap   *colstore.Snapshot
	nMain  int
	window []uint64
	start  int // window covers rows [start, start+len(window))
}

func newCodeStream(snap *colstore.Snapshot) *codeStream {
	return &codeStream{snap: snap, nMain: snap.MainRows()}
}

func (cs *codeStream) code(row int) (uint32, bool) {
	if row >= cs.nMain {
		return 0, false
	}
	if off := row - cs.start; off >= 0 && off < len(cs.window) {
		return uint32(cs.window[off]), true
	}
	n := cs.nMain - row
	if n > codeStreamChunk {
		n = codeStreamChunk
	}
	cs.window = cs.snap.AppendCodeRange(cs.window[:0], row, n)
	cs.start = row
	return uint32(cs.window[0]), true
}

// rowFlags evaluates pred on col's value ID at each of a table's rows: a
// dimension-table predicate resolved once per row, not once per probe.
func rowFlags(rows int, col *colstore.Snapshot, pred func(code uint32) bool) []bool {
	out := make([]bool, rows)
	cs := newCodeStream(col)
	for row := range out {
		code, _ := cs.code(row)
		out[row] = pred(code)
	}
	return out
}

// keyRow resolves a foreign-key value ID to the row of the key column that
// holds the same value, or -1 if there is none: toKey is the foreign key's
// TranslateCodes into the key column, rowByCode the key's RowIndexByCode.
func keyRow(toKey []int64, rowByCode []int32, code uint32) int32 {
	if kc := toKey[code]; kc >= 0 {
		return rowByCode[kc]
	}
	return -1
}

// keysOfNationsInRegion returns the n_nationkey codes (in the nation table's
// n_nationkey dictionary) of all nations in the named region, along with a
// map from that code to the nation's name.
func keysOfNationsInRegion(view *colstore.View, region string) (map[uint32]bool, map[uint32]string) {
	rt, nt := view.Table("region"), view.Table("nation")
	regionKeyByRow := rt.Str("r_regionkey")
	rname := rt.Str("r_name")
	var regionKey string
	rcode, found := rname.Locate(region)
	if found {
		csRName := newCodeStream(rname)
		for row := 0; row < rt.Rows(); row++ {
			if code, ok := csRName.code(row); ok && code == rcode {
				regionKey = regionKeyByRow.Get(row)
			}
		}
	}
	keys := make(map[uint32]bool)
	names := make(map[uint32]string)
	nrk := nt.Str("n_regionkey")
	nk := nt.Str("n_nationkey")
	nn := nt.Str("n_name")
	want, haveRegion := nrk.Locate(regionKey)
	csNRK, csNK := newCodeStream(nrk), newCodeStream(nk)
	for row := 0; row < nt.Rows(); row++ {
		if code, ok := csNRK.code(row); ok && haveRegion && code == want {
			kc, _ := csNK.code(row)
			keys[kc] = true
			names[kc] = nn.Get(row)
		}
	}
	return keys, names
}

// nationKeyCode returns the n_nationkey code of a nation by name, along
// with the nation's name for result labelling.
func nationKeyCode(view *colstore.View, name string) (uint32, string, bool) {
	nt := view.Table("nation")
	nn := nt.Str("n_name")
	nk := nt.Str("n_nationkey")
	ncode, found := nn.Locate(name)
	if !found {
		return 0, "", false
	}
	csNN, csNK := newCodeStream(nn), newCodeStream(nk)
	for row := 0; row < nt.Rows(); row++ {
		if code, ok := csNN.code(row); ok && code == ncode {
			kc, _ := csNK.code(row)
			return kc, name, true
		}
	}
	return 0, "", false
}

// yearOf converts a day number to its calendar year.
func yearOf(day int64) int {
	y, err := strconv.Atoi(DateString(day)[:4])
	if err != nil {
		panic(err)
	}
	return y
}

func strconvItoa(v int) string { return strconv.Itoa(v) }

func parseF(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic("tpch: bad float in result row: " + s)
	}
	return v
}

// rowToNationCode maps every row of a *_nationkey column to its value ID in
// the nation table's n_nationkey dictionary (-1 if absent).
func rowToNationCode(view *colstore.View, col *colstore.Snapshot) []int64 {
	toNation := colstore.TranslateCodes(col, view.Table("nation").Str("n_nationkey"))
	out := make([]int64, col.Len())
	cs := newCodeStream(col)
	for row := range out {
		code, _ := cs.code(row)
		out[row] = toNation[code]
	}
	return out
}
