package tpch

import (
	"fmt"
	"sort"
	"strconv"
	"time"

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
	var out []*Result
	for _, q := range Queries() {
		out = append(out, q.Run(s))
	}
	return out
}

// --- plan helpers ---

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// sortKey is one order-by key: a result column compared as a string, or —
// numeric — as the number its two-decimal string parses to; ascending
// unless desc.
type sortKey struct {
	col           int
	numeric, desc bool
}

func str(col int) sortKey { return sortKey{col: col} }
func num(col int) sortKey { return sortKey{col: col, numeric: true} }

func (k sortKey) down() sortKey {
	k.desc = true
	return k
}

// orderBy sorts rows by the keys, most significant first, and truncates to
// limit (limit <= 0 keeps everything). The first key whose two strings
// differ decides — a numeric key by the numbers they parse to, each parsed
// once per row before the sort rather than in every comparison.
func orderBy(rows [][]string, limit int, keys ...sortKey) [][]string {
	type keyed struct {
		row  []string
		nums []float64 // nums[k] is keys[k] parsed, for a numeric key
	}
	ks := make([]keyed, len(rows))
	for i, row := range rows {
		ks[i] = keyed{row, make([]float64, len(keys))}
		for k, key := range keys {
			if key.numeric {
				ks[i].nums[k] = parseF(row[key.col])
			}
		}
	}
	sort.SliceStable(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		for k, key := range keys {
			if a.row[key.col] == b.row[key.col] {
				continue
			}
			if key.desc {
				a, b = b, a
			}
			if key.numeric {
				return a.nums[k] < b.nums[k]
			}
			return a.row[key.col] < b.row[key.col]
		}
		return false
	})
	for i := range rows {
		rows[i] = ks[i].row
	}
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows
}

// rowsIn resolves a CodeSet predicate once per row of its table instead of
// once per probe from the other side of a join: out[row] reports whether
// the row's value ID is in set.
func rowsIn(codes []uint32, set colstore.CodeSet) []bool {
	out := make([]bool, len(codes))
	for row, code := range codes {
		out[row] = set.Has(code)
	}
	return out
}

// nationsInRegion flags, by nation row, the nations of the named region and
// returns their names.
func nationsInRegion(view *colstore.View, region string) ([]bool, []string) {
	rt, nt := view.Table("region"), view.Table("nation")
	var regionKey string
	if rcode, found := rt.Str("r_name").Locate(region); found {
		for row, code := range rt.Codes("r_name") {
			if code == rcode {
				regionKey = rt.Str("r_regionkey").Get(row)
			}
		}
	}
	inRegion, names := make([]bool, nt.Rows()), make([]string, nt.Rows())
	want, haveRegion := nt.Str("n_regionkey").Locate(regionKey)
	for row, code := range nt.Codes("n_regionkey") {
		if haveRegion && code == want {
			inRegion[row] = true
			names[row] = nt.Str("n_name").Get(row)
		}
	}
	return inRegion, names
}

// nationRow returns the nation table's row of a nation by name.
func nationRow(view *colstore.View, name string) (int32, bool) {
	nt := view.Table("nation")
	if ncode, found := nt.Str("n_name").Locate(name); found {
		for row, code := range nt.Codes("n_name") {
			if code == ncode {
				return int32(row), true
			}
		}
	}
	return -1, false
}

// nationNames returns every nation's name by nation row; a row of -1 (a
// *_nationkey that joins to no nation) reads "".
func nationNames(view *colstore.View) map[int32]string {
	nt := view.Table("nation")
	names := make(map[int32]string, nt.Rows())
	for row := 0; row < nt.Rows(); row++ {
		names[int32(row)] = nt.Str("n_name").Get(row)
	}
	return names
}

// yearOf converts a day number to its calendar year.
func yearOf(day int64) int { return time.Unix(day*86400, 0).UTC().Year() }

func parseF(s string) float64 {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		panic("tpch: bad float in result row: " + s)
	}
	return v
}
