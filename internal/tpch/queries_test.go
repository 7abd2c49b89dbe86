package tpch

import "strdict/internal/colstore"

// q1..q22 run one query on a store the way every caller outside the package
// does — through Queries, so the tests cover the view each Run opens and
// releases around its plan.
var (
	q1, q2, q3, q4, q5, q6, q7, q8, q9, q10, q11          = query(1), query(2), query(3), query(4), query(5), query(6), query(7), query(8), query(9), query(10), query(11)
	q12, q13, q14, q15, q16, q17, q18, q19, q20, q21, q22 = query(12), query(13), query(14), query(15), query(16), query(17), query(18), query(19), query(20), query(21), query(22)
)

func query(n int) func(*colstore.Store) *Result { return Queries()[n-1].Run }
