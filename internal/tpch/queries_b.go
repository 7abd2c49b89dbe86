package tpch

// TPC-H queries 12-22.

import (
	"strconv"
	"strings"

	"strdict/internal/colstore"
)

// plan12 — Shipping Modes and Order Priority: late lineitems of 1994 received
// by MAIL or SHIP, split into urgent and non-urgent order counts.
//
// Reference SQL:
//
//	select l_shipmode,
//	       sum(case when o_orderpriority in ('1-URGENT','2-HIGH') then 1 else 0 end),
//	       sum(case when o_orderpriority not in ('1-URGENT','2-HIGH') then 1 else 0 end)
//	from orders, lineitem
//	where o_orderkey = l_orderkey and l_shipmode in ('MAIL','SHIP')
//	  and l_commitdate < l_receiptdate and l_shipdate < l_commitdate
//	  and l_receiptdate >= date '1994-01-01' and l_receiptdate < date '1995-01-01'
//	group by l_shipmode order by l_shipmode
func plan12(view *colstore.View) *Result {
	lo, hi := Date("1994-01-01"), Date("1995-01-01")
	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	commit := lt.Int("l_commitdate")
	recv := lt.Int("l_receiptdate")
	mailCode, mailOK := lt.Str("l_shipmode").Locate("MAIL")
	shipCode, shipOK := lt.Str("l_shipmode").Locate("SHIP")
	mode := lt.Codes("l_shipmode")

	ot := view.Table("orders")
	urgent, urgentOK := ot.Str("o_orderpriority").Locate("1-URGENT")
	high, highOK := ot.Str("o_orderpriority").Locate("2-HIGH")
	prio := ot.Codes("o_orderpriority")

	type counts struct{ hi, lo int }
	byMode := make([]counts, lt.Str("l_shipmode").DictLen()) // by value ID
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		mc := mode[row]
		if !(mailOK && mc == mailCode) && !(shipOK && mc == shipCode) {
			continue
		}
		r := recv.Get(row)
		if r < lo || r >= hi {
			continue
		}
		if !(commit.Get(row) < r && ship.Get(row) < commit.Get(row)) || orow < 0 {
			continue
		}
		c := &byMode[mc]
		if pc := prio[orow]; (urgentOK && pc == urgent) || (highOK && pc == high) {
			c.hi++
		} else {
			c.lo++
		}
	}

	var rows [][]string
	for mc, c := range byMode {
		if c.hi+c.lo > 0 {
			rows = append(rows, []string{lt.Str("l_shipmode").Extract(uint32(mc)), strconv.Itoa(c.hi), strconv.Itoa(c.lo)})
		}
	}
	return &Result{Query: 12, Columns: []string{"l_shipmode", "high_line_count", "low_line_count"},
		Rows: orderBy(rows, 0, str(0))}
}

// plan13 — Customer Distribution: histogram of order counts per customer,
// excluding orders whose comment matches "special ... requests".
//
// Reference SQL:
//
//	select c_count, count(*) as custdist from (
//	  select c_custkey, count(o_orderkey) from customer
//	  left outer join orders on c_custkey = o_custkey
//	    and o_comment not like '%special%requests%'
//	  group by c_custkey) as c_orders (c_custkey, c_count)
//	group by c_count order by custdist desc, c_count desc
func plan13(view *colstore.View) *Result {
	ot := view.Table("orders")
	excluded := ot.Str("o_comment").CodeSet(func(v string) bool {
		i := strings.Index(v, "special")
		return i >= 0 && strings.Contains(v[i:], "requests")
	})
	ocom := ot.Codes("o_comment")
	ct := view.Table("customer")

	perCust := make([]int, ct.Rows()) // by customer row
	for row, crow := range ot.Join("o_custkey", ct, "c_custkey") {
		if crow >= 0 && !excluded.Has(ocom[row]) {
			perCust[crow]++
		}
	}
	histogram := make(map[int]int)
	for _, n := range perCust {
		histogram[n]++
	}

	var rows [][]string
	for n, custs := range histogram {
		rows = append(rows, []string{strconv.Itoa(n), strconv.Itoa(custs)})
	}
	return &Result{Query: 13, Columns: []string{"c_count", "custdist"},
		Rows: orderBy(rows, 0, num(1).down(), num(0).down())}
}

// plan14 — Promotion Effect: share of September 1995 revenue from PROMO parts.
//
// Reference SQL:
//
//	select 100.00 * sum(case when p_type like 'PROMO%'
//	       then l_extendedprice*(1-l_discount) else 0 end)
//	       / sum(l_extendedprice*(1-l_discount))
//	from lineitem, part
//	where l_partkey = p_partkey and l_shipdate >= date '1995-09-01'
//	  and l_shipdate < date '1995-10-01'
func plan14(view *colstore.View) *Result {
	lo, hi := Date("1995-09-01"), Date("1995-10-01")
	pt := view.Table("part")
	promo := rowsIn(pt.Codes("p_type"), pt.Str("p_type").PrefixSet("PROMO"))

	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")

	var promoRev, totalRev float64
	for row, prow := range lt.Join("l_partkey", pt, "p_partkey") {
		if d := ship.Get(row); d < lo || d >= hi || prow < 0 {
			continue
		}
		v := ext.Get(row) * (1 - disc.Get(row))
		totalRev += v
		if promo[prow] {
			promoRev += v
		}
	}
	share := 0.0
	if totalRev > 0 {
		share = 100 * promoRev / totalRev
	}
	return &Result{Query: 14, Columns: []string{"promo_revenue"}, Rows: [][]string{{f2(share)}}}
}

// plan15 — Top Supplier: suppliers with the maximum revenue in 1996Q1.
//
// Reference SQL:
//
//	with revenue (supplier_no, total_revenue) as (
//	  select l_suppkey, sum(l_extendedprice*(1-l_discount)) from lineitem
//	  where l_shipdate >= date '1996-01-01'
//	    and l_shipdate < date '1996-01-01' + interval '3' month
//	  group by l_suppkey)
//	select s_suppkey, s_name, s_address, s_phone, total_revenue
//	from supplier, revenue where s_suppkey = supplier_no
//	  and total_revenue = (select max(total_revenue) from revenue)
//	order by s_suppkey
func plan15(view *colstore.View) *Result {
	lo, hi := Date("1996-01-01"), Date("1996-04-01")
	st := view.Table("supplier")
	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")

	revenue := make([]float64, st.Rows()) // by supplier row
	for row, srow := range lt.Join("l_suppkey", st, "s_suppkey") {
		if d := ship.Get(row); d >= lo && d < hi && srow >= 0 {
			revenue[srow] += ext.Get(row) * (1 - disc.Get(row))
		}
	}
	var max float64
	for _, v := range revenue {
		if v > max {
			max = v
		}
	}
	var rows [][]string
	for srow, v := range revenue {
		if v == 0 || v < max-1e-6 {
			continue
		}
		rows = append(rows, []string{
			st.Str("s_suppkey").Get(srow),
			st.Str("s_name").Get(srow),
			st.Str("s_address").Get(srow),
			st.Str("s_phone").Get(srow),
			f2(v),
		})
	}
	return &Result{Query: 15, Columns: []string{
		"s_suppkey", "s_name", "s_address", "s_phone", "total_revenue"}, Rows: orderBy(rows, 0, str(0))}
}

// plan16 — Parts/Supplier Relationship: distinct supplier counts per
// (brand, type, size) for a filtered part set, excluding complained-about
// suppliers.
//
// Reference SQL:
//
//	select p_brand, p_type, p_size, count(distinct ps_suppkey)
//	from partsupp, part
//	where p_partkey = ps_partkey and p_brand <> 'Brand#45'
//	  and p_type not like 'MEDIUM POLISHED%'
//	  and p_size in (49, 14, 23, 45, 19, 3, 36, 9)
//	  and ps_suppkey not in (select s_suppkey from supplier
//	       where s_comment like '%Customer%Complaints%')
//	group by p_brand, p_type, p_size
//	order by supplier_cnt desc, p_brand, p_type, p_size
func plan16(view *colstore.View) *Result {
	sizes := map[int64]bool{49: true, 14: true, 23: true, 45: true, 19: true, 3: true, 36: true, 9: true}
	pt := view.Table("part")
	psize := pt.Int("p_size")
	excludedBrand, brandOK := pt.Str("p_brand").Locate("Brand#45")
	badTypes := pt.Str("p_type").PrefixSet("MEDIUM POLISHED")
	brand, ptype := pt.Codes("p_brand"), pt.Codes("p_type")

	st := view.Table("supplier")
	badSupp := rowsIn(st.Codes("s_comment"), st.Str("s_comment").CodeSet(func(v string) bool {
		return strings.Contains(v, "Customer Complaints")
	}))

	pst := view.Table("partsupp")
	psSupp := pst.Join("ps_suppkey", st, "s_suppkey")

	type gk struct {
		brand, ptype uint32
		size         int64
	}
	suppliers := make(map[gk]map[int32]bool) // group -> supplier rows
	for row, prow := range pst.Join("ps_partkey", pt, "p_partkey") {
		// A part whose brand or type has no value ID falls in no group.
		if prow < 0 || brand[prow] == colstore.NoCode || ptype[prow] == colstore.NoCode {
			continue
		}
		k := gk{brand[prow], ptype[prow], psize.Get(int(prow))}
		if (brandOK && k.brand == excludedBrand) || badTypes.Has(k.ptype) || !sizes[k.size] {
			continue
		}
		if srow := psSupp[row]; srow >= 0 && !badSupp[srow] {
			if suppliers[k] == nil {
				suppliers[k] = make(map[int32]bool)
			}
			suppliers[k][srow] = true
		}
	}

	var rows [][]string
	for k, set := range suppliers {
		rows = append(rows, []string{
			pt.Str("p_brand").Extract(k.brand), pt.Str("p_type").Extract(k.ptype),
			strconv.Itoa(int(k.size)), strconv.Itoa(len(set)),
		})
	}
	return &Result{Query: 16, Columns: []string{"p_brand", "p_type", "p_size", "supplier_cnt"},
		Rows: orderBy(rows, 0, num(3).down(), str(0), str(1), num(2))}
}

// plan17 — Small-Quantity-Order Revenue: average yearly revenue lost if small
// orders of Brand#23 MED BOX parts were not taken.
//
// Reference SQL:
//
//	select sum(l_extendedprice) / 7.0 from lineitem, part
//	where p_partkey = l_partkey and p_brand = 'Brand#23'
//	  and p_container = 'MED BOX'
//	  and l_quantity < (select 0.2 * avg(l_quantity) from lineitem
//	       where l_partkey = p_partkey)
func plan17(view *colstore.View) *Result {
	pt := view.Table("part")
	brandCode, brandOK := pt.Str("p_brand").Locate("Brand#23")
	contCode, contOK := pt.Str("p_container").Locate("MED BOX")
	brand, cont := pt.Codes("p_brand"), pt.Codes("p_container")

	lt := view.Table("lineitem")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	liPart := lt.Join("l_partkey", pt, "p_partkey")
	passes := make([]bool, pt.Rows()) // by part row
	for prow := range passes {
		passes[prow] = brandOK && contOK && brand[prow] == brandCode && cont[prow] == contCode
	}

	// avg quantity per qualifying part: a part with a count passes
	sumQty := make([]float64, pt.Rows()) // by part row
	cntQty := make([]int, pt.Rows())
	for row, prow := range liPart {
		if prow >= 0 && passes[prow] {
			sumQty[prow] += qty.Get(row)
			cntQty[prow]++
		}
	}
	var total float64
	for row, prow := range liPart {
		if prow < 0 || cntQty[prow] == 0 {
			continue
		}
		avg := sumQty[prow] / float64(cntQty[prow])
		if qty.Get(row) < 0.2*avg {
			total += ext.Get(row)
		}
	}
	return &Result{Query: 17, Columns: []string{"avg_yearly"}, Rows: [][]string{{f2(total / 7)}}}
}

// plan18 — Large Volume Customer: orders whose lineitem quantities exceed 300.
//
// Reference SQL:
//
//	select c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, sum(l_quantity)
//	from customer, orders, lineitem
//	where o_orderkey in (select l_orderkey from lineitem
//	       group by l_orderkey having sum(l_quantity) > 300)
//	  and c_custkey = o_custkey and o_orderkey = l_orderkey
//	group by ... order by o_totalprice desc, o_orderdate limit 100
func plan18(view *colstore.View) *Result {
	lt := view.Table("lineitem")
	qty := lt.Float("l_quantity")
	ot := view.Table("orders")

	sumQty := make([]float64, ot.Rows()) // by order row
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		if orow >= 0 {
			sumQty[orow] += qty.Get(row)
		}
	}

	ct := view.Table("customer")
	oCust := ot.Join("o_custkey", ct, "c_custkey")
	var rows [][]string
	for orow, q := range sumQty {
		if q <= 300 || oCust[orow] < 0 {
			continue
		}
		crow := int(oCust[orow])
		rows = append(rows, []string{
			ct.Str("c_name").Get(crow),
			ct.Str("c_custkey").Get(crow),
			ot.Str("o_orderkey").Get(orow),
			DateString(ot.Int("o_orderdate").Get(orow)),
			f2(ot.Float("o_totalprice").Get(orow)),
			f2(q),
		})
	}
	return &Result{Query: 18, Columns: []string{
		"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"},
		Rows: orderBy(rows, 100, num(4).down(), str(3))}
}

// plan19 — Discounted Revenue: three brand/container/quantity disjuncts.
//
// Reference SQL:
//
//	select sum(l_extendedprice*(1-l_discount)) from lineitem, part
//	where (p_partkey = l_partkey and p_brand = 'Brand#12'
//	       and p_container in ('SM CASE','SM BOX','SM PACK','SM PKG')
//	       and l_quantity >= 1 and l_quantity <= 11 and p_size between 1 and 5 ...)
//	   or (... 'Brand#23', MED containers, quantity 10..20, size 1..10 ...)
//	   or (... 'Brand#34', LG containers, quantity 20..30, size 1..15 ...)
//	  and l_shipmode in ('AIR','REG AIR')
//	  and l_shipinstruct = 'DELIVER IN PERSON'
func plan19(view *colstore.View) *Result {
	pt := view.Table("part")
	size := pt.Int("p_size")
	pcont := pt.Str("p_container")
	sm := pcont.ValueSet("SM CASE", "SM BOX", "SM PACK", "SM PKG")
	med := pcont.ValueSet("MED BAG", "MED BOX", "MED PKG", "MED PACK")
	lg := pcont.ValueSet("LG CASE", "LG BOX", "LG PACK", "LG PKG")
	b12, _ := pt.Str("p_brand").Locate("Brand#12")
	b23, _ := pt.Str("p_brand").Locate("Brand#23")
	b34, _ := pt.Str("p_brand").Locate("Brand#34")
	brand, cont := pt.Codes("p_brand"), pt.Codes("p_container")

	lt := view.Table("lineitem")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	air, _ := lt.Str("l_shipmode").Locate("AIR")
	regair, _ := lt.Str("l_shipmode").Locate("REG AIR")
	deliver, _ := lt.Str("l_shipinstruct").Locate("DELIVER IN PERSON")
	mode, instr := lt.Codes("l_shipmode"), lt.Codes("l_shipinstruct")

	var revenue float64
	for row, prow := range lt.Join("l_partkey", pt, "p_partkey") {
		if (mode[row] != air && mode[row] != regair) || instr[row] != deliver || prow < 0 {
			continue
		}
		bc, cc := brand[prow], cont[prow]
		sz := size.Get(int(prow))
		q := qty.Get(row)
		match := (bc == b12 && sm.Has(cc) && q >= 1 && q <= 11 && sz >= 1 && sz <= 5) ||
			(bc == b23 && med.Has(cc) && q >= 10 && q <= 20 && sz >= 1 && sz <= 10) ||
			(bc == b34 && lg.Has(cc) && q >= 20 && q <= 30 && sz >= 1 && sz <= 15)
		if match {
			revenue += ext.Get(row) * (1 - disc.Get(row))
		}
	}
	return &Result{Query: 19, Columns: []string{"revenue"}, Rows: [][]string{{f2(revenue)}}}
}

// plan20 — Potential Part Promotion: CANADA suppliers with excess stock of
// forest* parts relative to 1994 shipments.
//
// Reference SQL:
//
//	select s_name, s_address from supplier, nation
//	where s_suppkey in (select ps_suppkey from partsupp
//	    where ps_partkey in (select p_partkey from part where p_name like 'forest%')
//	      and ps_availqty > (select 0.5 * sum(l_quantity) from lineitem
//	           where l_partkey = ps_partkey and l_suppkey = ps_suppkey
//	             and l_shipdate >= date '1994-01-01'
//	             and l_shipdate < date '1995-01-01'))
//	  and s_nationkey = n_nationkey and n_name = 'CANADA' order by s_name
func plan20(view *colstore.View) *Result {
	lo, hi := Date("1994-01-01"), Date("1995-01-01")
	ca, okCA := nationRow(view, "CANADA")
	if !okCA {
		return &Result{Query: 20}
	}
	pt := view.Table("part")
	forest := rowsIn(pt.Codes("p_name"), pt.Str("p_name").PrefixSet("forest"))

	// Shipped quantity in 1994 per (part row, supplier row).
	st := view.Table("supplier")
	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	qty := lt.Float("l_quantity")
	liSupp := lt.Join("l_suppkey", st, "s_suppkey")
	type pair struct{ p, s int32 }
	shipped := make(map[pair]float64)
	for row, prow := range lt.Join("l_partkey", pt, "p_partkey") {
		if d := ship.Get(row); d >= lo && d < hi {
			shipped[pair{prow, liSupp[row]}] += qty.Get(row)
		}
	}

	pst := view.Table("partsupp")
	avail := pst.Int("ps_availqty")
	psSupp := pst.Join("ps_suppkey", st, "s_suppkey")
	candidates := make([]bool, st.Rows()) // by supplier row
	for row, prow := range pst.Join("ps_partkey", pt, "p_partkey") {
		srow := psSupp[row]
		if prow < 0 || !forest[prow] || srow < 0 {
			continue
		}
		if q := shipped[pair{prow, srow}]; float64(avail.Get(row)) > 0.5*q && q > 0 {
			candidates[srow] = true
		}
	}

	suppNation := st.Join("s_nationkey", view.Table("nation"), "n_nationkey")
	var rows [][]string
	for srow, ok := range candidates {
		if ok && suppNation[srow] == ca {
			rows = append(rows, []string{
				st.Str("s_name").Get(srow),
				st.Str("s_address").Get(srow),
			})
		}
	}
	return &Result{Query: 20, Columns: []string{"s_name", "s_address"}, Rows: orderBy(rows, 0, str(0))}
}

// plan21 — Suppliers Who Kept Orders Waiting: SAUDI ARABIA suppliers that were
// the only late supplier of a multi-supplier order.
//
// Reference SQL:
//
//	select s_name, count(*) as numwait from supplier, lineitem l1, orders, nation
//	where s_suppkey = l1.l_suppkey and o_orderkey = l1.l_orderkey
//	  and o_orderstatus = 'F' and l1.l_receiptdate > l1.l_commitdate
//	  and exists (select * from lineitem l2 where l2.l_orderkey = l1.l_orderkey
//	       and l2.l_suppkey <> l1.l_suppkey)
//	  and not exists (select * from lineitem l3 where l3.l_orderkey = l1.l_orderkey
//	       and l3.l_suppkey <> l1.l_suppkey and l3.l_receiptdate > l3.l_commitdate)
//	  and s_nationkey = n_nationkey and n_name = 'SAUDI ARABIA'
//	group by s_name order by numwait desc, s_name limit 100
func plan21(view *colstore.View) *Result {
	sa, okSA := nationRow(view, "SAUDI ARABIA")
	if !okSA {
		return &Result{Query: 21}
	}
	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", view.Table("nation"), "n_nationkey")

	ot := view.Table("orders")
	fCode, fOK := ot.Str("o_orderstatus").Locate("F")
	status := ot.Codes("o_orderstatus")

	lt := view.Table("lineitem")
	commit := lt.Int("l_commitdate")
	recv := lt.Int("l_receiptdate")
	liSupp := lt.Join("l_suppkey", st, "s_suppkey")

	// Per order row, over its lineitems and over its late ones: 0 for no
	// supplier, 1 + the row of the only one, -1 for several.
	supp, late := make([]int32, ot.Rows()), make([]int32, ot.Rows())
	note := func(only []int32, orow, srow int32) {
		if only[orow] == 0 {
			only[orow] = srow + 1
		} else if only[orow] != srow+1 {
			only[orow] = -1
		}
	}
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		srow := liSupp[row]
		if orow < 0 || !fOK || status[orow] != fCode || srow < 0 {
			continue
		}
		note(supp, orow, srow)
		if recv.Get(row) > commit.Get(row) {
			note(late, orow, srow)
		}
	}

	waiting := make([]int, st.Rows()) // by supplier row
	for orow, s := range late {
		if s > 0 && supp[orow] < 0 && suppNation[s-1] == sa {
			waiting[s-1]++
		}
	}

	var rows [][]string
	for srow, n := range waiting {
		if n > 0 {
			rows = append(rows, []string{st.Str("s_name").Get(srow), strconv.Itoa(n)})
		}
	}
	return &Result{Query: 21, Columns: []string{"s_name", "numwait"},
		Rows: orderBy(rows, 100, num(1).down(), str(0))}
}

// plan22 — Global Sales Opportunity: well-funded customers from seven country
// codes without orders.
//
// Reference SQL:
//
//	select cntrycode, count(*) as numcust, sum(c_acctbal) from (
//	  select substring(c_phone from 1 for 2) as cntrycode, c_acctbal
//	  from customer
//	  where substring(c_phone from 1 for 2) in ('13','31','23','29','30','18','17')
//	    and c_acctbal > (select avg(c_acctbal) from customer
//	         where c_acctbal > 0.00 and substring(...) in (...))
//	    and not exists (select * from orders where o_custkey = c_custkey))
//	group by cntrycode order by cntrycode
func plan22(view *colstore.View) *Result {
	codes := []string{"13", "31", "23", "29", "30", "18", "17"}
	ct := view.Table("customer")
	bal := ct.Float("c_acctbal")
	// The country code of a row is the one whose prefix set holds its phone.
	sets := make([]colstore.CodeSet, len(codes))
	for i, cc := range codes {
		sets[i] = ct.Str("c_phone").PrefixSet(cc)
	}
	codeOf := make([]int, ct.Rows()) // by customer row, -1: none of the codes
	for row, pc := range ct.Codes("c_phone") {
		codeOf[row] = -1
		for i, set := range sets {
			if set.Has(pc) {
				codeOf[row] = i
			}
		}
	}

	// avg positive balance over customers in the code set
	var sum float64
	var n int
	for row, i := range codeOf {
		if i >= 0 && bal.Get(row) > 0 {
			sum += bal.Get(row)
			n++
		}
	}
	if n == 0 {
		return &Result{Query: 22, Columns: []string{"cntrycode", "numcust", "totacctbal"}}
	}
	avg := sum / float64(n)

	// Customers with at least one order.
	hasOrder := make([]bool, ct.Rows())
	for _, crow := range view.Table("orders").Join("o_custkey", ct, "c_custkey") {
		if crow >= 0 {
			hasOrder[crow] = true
		}
	}

	type agg struct {
		n   int
		sum float64
	}
	byCode := make([]agg, len(codes))
	for row, i := range codeOf {
		if i >= 0 && bal.Get(row) > avg && !hasOrder[row] {
			byCode[i].n++
			byCode[i].sum += bal.Get(row)
		}
	}

	var rows [][]string
	for i, a := range byCode {
		if a.n > 0 {
			rows = append(rows, []string{codes[i], strconv.Itoa(a.n), f2(a.sum)})
		}
	}
	return &Result{Query: 22, Columns: []string{"cntrycode", "numcust", "totacctbal"}, Rows: orderBy(rows, 0, str(0))}
}
