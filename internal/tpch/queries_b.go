package tpch

// TPC-H queries 12-22.

import (
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
	mode := lt.Str("l_shipmode")
	ship := lt.Int("l_shipdate")
	commit := lt.Int("l_commitdate")
	recv := lt.Int("l_receiptdate")
	lok := lt.Str("l_orderkey")

	mailCode, mailOK := mode.Locate("MAIL")
	shipCode, shipOK := mode.Locate("SHIP")

	ot := view.Table("orders")
	prio := ot.Str("o_orderpriority")
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	urgent, urgentOK := prio.Locate("1-URGENT")
	high, highOK := prio.Locate("2-HIGH")

	type counts struct{ hi, lo int }
	byMode := make(map[uint32]*counts)
	csMode, csLok, csPrio := newCodeStream(mode), newCodeStream(lok), newCodeStream(prio)
	for row := 0; row < lt.Rows(); row++ {
		mc, _ := csMode.code(row)
		if !(mailOK && mc == mailCode) && !(shipOK && mc == shipCode) {
			continue
		}
		r := recv.Get(row)
		if r < lo || r >= hi {
			continue
		}
		if !(commit.Get(row) < r && ship.Get(row) < commit.Get(row)) {
			continue
		}
		lcRaw, _ := csLok.code(row)
		orow := keyRow(liOrderToOrder, orderRowByCode, lcRaw)
		if orow < 0 {
			continue
		}
		pc, _ := csPrio.code(int(orow))
		c := byMode[mc]
		if c == nil {
			c = &counts{}
			byMode[mc] = c
		}
		if (urgentOK && pc == urgent) || (highOK && pc == high) {
			c.hi++
		} else {
			c.lo++
		}
	}

	var rows [][]string
	for mc, c := range byMode {
		rows = append(rows, []string{mode.Extract(mc), strconvItoa(c.hi), strconvItoa(c.lo)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return a[0] < b[0] })
	return &Result{Query: 12, Columns: []string{"l_shipmode", "high_line_count", "low_line_count"}, Rows: rows}
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
	ocom := ot.Str("o_comment")
	excluded := ocom.CodeSet(func(v string) bool {
		i := strings.Index(v, "special")
		return i >= 0 && strings.Contains(v[i:], "requests")
	})
	ct := view.Table("customer")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))

	perCust := make(map[int64]int)
	csOCom, csOCust := newCodeStream(ocom), newCodeStream(ocust)
	for row := 0; row < ot.Rows(); row++ {
		cc, _ := csOCom.code(row)
		if excluded[cc] {
			continue
		}
		ccRaw, _ := csOCust.code(row)
		if c := oCustToCust[ccRaw]; c >= 0 {
			perCust[c]++
		}
	}
	histogram := make(map[int]int)
	for _, n := range perCust {
		histogram[n]++
	}
	histogram[0] = ct.Rows() - len(perCust) // customers with no orders

	var rows [][]string
	for n, custs := range histogram {
		rows = append(rows, []string{strconvItoa(n), strconvItoa(custs)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool {
		if a[1] != b[1] {
			return parseF(a[1]) > parseF(b[1])
		}
		return parseF(a[0]) > parseF(b[0])
	})
	return &Result{Query: 13, Columns: []string{"c_count", "custdist"}, Rows: rows}
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
	ptype := pt.Str("p_type")
	promo := ptype.CodeSet(func(v string) bool { return strings.HasPrefix(v, "PROMO") })
	partPromo := rowFlags(pt.Rows(), ptype, func(code uint32) bool { return promo[code] })
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lpk := lt.Str("l_partkey")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liPartToPart := colstore.TranslateCodes(lpk, pt.Str("p_partkey"))

	var promoRev, totalRev float64
	csLpk := newCodeStream(lpk)
	for row := 0; row < lt.Rows(); row++ {
		d := ship.Get(row)
		if d < lo || d >= hi {
			continue
		}
		pcRaw, _ := csLpk.code(row)
		prow := keyRow(liPartToPart, partRowByCode, pcRaw)
		if prow < 0 {
			continue
		}
		v := ext.Get(row) * (1 - disc.Get(row))
		totalRev += v
		if partPromo[prow] {
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
	lsk := lt.Str("l_suppkey")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()

	revenue := make(map[int64]float64) // by s_suppkey code
	csLsk := newCodeStream(lsk)
	for row := 0; row < lt.Rows(); row++ {
		d := ship.Get(row)
		if d < lo || d >= hi {
			continue
		}
		scRaw, _ := csLsk.code(row)
		if sc := liSuppToSupp[scRaw]; sc >= 0 {
			revenue[sc] += ext.Get(row) * (1 - disc.Get(row))
		}
	}
	var max float64
	for _, v := range revenue {
		if v > max {
			max = v
		}
	}
	var rows [][]string
	for sc, v := range revenue {
		if v < max-1e-6 {
			continue
		}
		srow := int(suppRowByCode[sc])
		rows = append(rows, []string{
			st.Str("s_suppkey").Extract(uint32(sc)),
			st.Str("s_name").Get(srow),
			st.Str("s_address").Get(srow),
			st.Str("s_phone").Get(srow),
			f2(v),
		})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return a[0] < b[0] })
	return &Result{Query: 15, Columns: []string{
		"s_suppkey", "s_name", "s_address", "s_phone", "total_revenue"}, Rows: rows}
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
	brand := pt.Str("p_brand")
	ptype := pt.Str("p_type")
	psize := pt.Int("p_size")
	excludedBrand, brandOK := brand.Locate("Brand#45")
	badTypes := ptype.CodeSet(func(v string) bool { return strings.HasPrefix(v, "MEDIUM POLISHED") })
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	// The partsupp loop probes part rows in partkey order, not row order, so
	// batch-decode the part-side codes once up front.
	brandCodes := make([]uint32, pt.Rows())
	ptypeCodes := make([]uint32, pt.Rows())
	csBrand, csPType := newCodeStream(brand), newCodeStream(ptype)
	for row := 0; row < pt.Rows(); row++ {
		brandCodes[row], _ = csBrand.code(row)
		ptypeCodes[row], _ = csPType.code(row)
	}

	st := view.Table("supplier")
	scom := st.Str("s_comment")
	badSupp := scom.CodeSet(func(v string) bool {
		return strings.Contains(v, "Customer Complaints")
	})
	suppBad := rowFlags(st.Rows(), scom, func(code uint32) bool { return badSupp[code] })
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()

	pst := view.Table("partsupp")
	psPart := pst.Str("ps_partkey")
	psSupp := pst.Str("ps_suppkey")
	psPartToPart := colstore.TranslateCodes(psPart, pt.Str("p_partkey"))
	psSuppToSupp := colstore.TranslateCodes(psSupp, st.Str("s_suppkey"))

	type gk struct {
		brand, ptype uint32
		size         int64
	}
	suppliers := make(map[gk]map[int64]bool)
	csPsPart, csPsSupp := newCodeStream(psPart), newCodeStream(psSupp)
	for row := 0; row < pst.Rows(); row++ {
		pcRaw, _ := csPsPart.code(row)
		prow := int(keyRow(psPartToPart, partRowByCode, pcRaw))
		if prow < 0 {
			continue
		}
		bc, tc := brandCodes[prow], ptypeCodes[prow]
		sz := psize.Get(prow)
		if (brandOK && bc == excludedBrand) || badTypes[tc] || !sizes[sz] {
			continue
		}
		scRaw, _ := csPsSupp.code(row)
		sc := psSuppToSupp[scRaw]
		if sc < 0 {
			continue
		}
		if srow := suppRowByCode[sc]; srow < 0 || suppBad[srow] {
			continue
		}
		k := gk{bc, tc, sz}
		if suppliers[k] == nil {
			suppliers[k] = make(map[int64]bool)
		}
		suppliers[k][sc] = true
	}

	var rows [][]string
	for k, set := range suppliers {
		rows = append(rows, []string{
			brand.Extract(k.brand), ptype.Extract(k.ptype),
			strconvItoa(int(k.size)), strconvItoa(len(set)),
		})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool {
		if a[3] != b[3] {
			return parseF(a[3]) > parseF(b[3])
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return parseF(a[2]) < parseF(b[2])
	})
	return &Result{Query: 16, Columns: []string{"p_brand", "p_type", "p_size", "supplier_cnt"}, Rows: rows}
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
	brand := pt.Str("p_brand")
	cont := pt.Str("p_container")
	brandCode, brandOK := brand.Locate("Brand#23")
	contCode, contOK := cont.Locate("MED BOX")
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lpk := lt.Str("l_partkey")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	liPartToPart := colstore.TranslateCodes(lpk, pt.Str("p_partkey"))

	// Qualifying parts, batch-decoded once: the lineitem loops probe part
	// rows in partkey order.
	partPass := make([]bool, pt.Rows())
	csBrand, csCont := newCodeStream(brand), newCodeStream(cont)
	for row := 0; row < pt.Rows(); row++ {
		bc, _ := csBrand.code(row)
		cc, _ := csCont.code(row)
		partPass[row] = brandOK && contOK && bc == brandCode && cc == contCode
	}

	// avg quantity per qualifying part
	sumQty := make(map[int64]float64)
	cntQty := make(map[int64]int)
	passes := func(pc int64) bool {
		if pc < 0 {
			return false
		}
		prow := partRowByCode[pc]
		return prow >= 0 && partPass[prow]
	}
	csLpk := newCodeStream(lpk)
	for row := 0; row < lt.Rows(); row++ {
		pcRaw, _ := csLpk.code(row)
		pc := liPartToPart[pcRaw]
		if passes(pc) {
			sumQty[pc] += qty.Get(row)
			cntQty[pc]++
		}
	}
	var total float64
	for row := 0; row < lt.Rows(); row++ {
		pcRaw, _ := csLpk.code(row)
		pc := liPartToPart[pcRaw]
		if !passes(pc) {
			continue
		}
		avg := sumQty[pc] / float64(cntQty[pc])
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
	lok := lt.Str("l_orderkey")
	qty := lt.Float("l_quantity")
	ot := view.Table("orders")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	sumQty := make(map[int64]float64) // by o_orderkey code
	csLok := newCodeStream(lok)
	for row := 0; row < lt.Rows(); row++ {
		lcRaw, _ := csLok.code(row)
		if oc := liOrderToOrder[lcRaw]; oc >= 0 {
			sumQty[oc] += qty.Get(row)
		}
	}

	ct := view.Table("customer")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	custRowByCode := ct.Str("c_custkey").RowIndexByCode()

	csOCust := newCodeStream(ocust)
	var rows [][]string
	for oc, q := range sumQty {
		if q <= 300 {
			continue
		}
		orow := int(orderRowByCode[oc])
		ccRaw, _ := csOCust.code(orow)
		cc := oCustToCust[ccRaw]
		if cc < 0 {
			continue
		}
		crow := int(custRowByCode[cc])
		rows = append(rows, []string{
			ct.Str("c_name").Get(crow),
			ct.Str("c_custkey").Extract(uint32(cc)),
			ot.Str("o_orderkey").Extract(uint32(oc)),
			DateString(ot.Int("o_orderdate").Get(orow)),
			f2(ot.Float("o_totalprice").Get(orow)),
			f2(q),
		})
	}
	rows = sortRows(rows, 100, func(a, b []string) bool {
		if a[4] != b[4] {
			return parseF(a[4]) > parseF(b[4])
		}
		return a[3] < b[3]
	})
	return &Result{Query: 18, Columns: []string{
		"c_name", "c_custkey", "o_orderkey", "o_orderdate", "o_totalprice", "sum_qty"}, Rows: rows}
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
	brand := pt.Str("p_brand")
	cont := pt.Str("p_container")
	size := pt.Int("p_size")
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	sm := cont.CodeSet(func(v string) bool {
		return v == "SM CASE" || v == "SM BOX" || v == "SM PACK" || v == "SM PKG"
	})
	med := cont.CodeSet(func(v string) bool {
		return v == "MED BAG" || v == "MED BOX" || v == "MED PKG" || v == "MED PACK"
	})
	lg := cont.CodeSet(func(v string) bool {
		return v == "LG CASE" || v == "LG BOX" || v == "LG PACK" || v == "LG PKG"
	})
	b12, _ := brand.Locate("Brand#12")
	b23, _ := brand.Locate("Brand#23")
	b34, _ := brand.Locate("Brand#34")

	// Part-side codes, batch-decoded once for the partkey-ordered probes.
	brandCodes := make([]uint32, pt.Rows())
	contCodes := make([]uint32, pt.Rows())
	csBrand, csCont := newCodeStream(brand), newCodeStream(cont)
	for row := 0; row < pt.Rows(); row++ {
		brandCodes[row], _ = csBrand.code(row)
		contCodes[row], _ = csCont.code(row)
	}

	lt := view.Table("lineitem")
	lpk := lt.Str("l_partkey")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	mode := lt.Str("l_shipmode")
	instr := lt.Str("l_shipinstruct")
	air, _ := mode.Locate("AIR")
	regair, _ := mode.Locate("REG AIR")
	deliver, _ := instr.Locate("DELIVER IN PERSON")
	liPartToPart := colstore.TranslateCodes(lpk, pt.Str("p_partkey"))

	var revenue float64
	csMode, csInstr, csLpk := newCodeStream(mode), newCodeStream(instr), newCodeStream(lpk)
	for row := 0; row < lt.Rows(); row++ {
		mc, _ := csMode.code(row)
		ic, _ := csInstr.code(row)
		if (mc != air && mc != regair) || ic != deliver {
			continue
		}
		pcRaw, _ := csLpk.code(row)
		prow := int(keyRow(liPartToPart, partRowByCode, pcRaw))
		if prow < 0 {
			continue
		}
		bc, cc := brandCodes[prow], contCodes[prow]
		sz := size.Get(prow)
		q := qty.Get(row)
		match := (bc == b12 && sm[cc] && q >= 1 && q <= 11 && sz >= 1 && sz <= 5) ||
			(bc == b23 && med[cc] && q >= 10 && q <= 20 && sz >= 1 && sz <= 10) ||
			(bc == b34 && lg[cc] && q >= 20 && q <= 30 && sz >= 1 && sz <= 15)
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
	ca, _, okCA := nationKeyCode(view, "CANADA")
	if !okCA {
		return &Result{Query: 20}
	}
	pt := view.Table("part")
	pname := pt.Str("p_name")
	forest := pname.CodeSet(func(v string) bool { return strings.HasPrefix(v, "forest") })
	partForest := rowFlags(pt.Rows(), pname, func(code uint32) bool { return forest[code] })
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	// Shipped quantity in 1994 per (part, supp) in partsupp code spaces.
	st := view.Table("supplier")
	lt := view.Table("lineitem")
	lpk := lt.Str("l_partkey")
	lsk := lt.Str("l_suppkey")
	ship := lt.Int("l_shipdate")
	qty := lt.Float("l_quantity")
	liPartToPart := colstore.TranslateCodes(lpk, pt.Str("p_partkey"))
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))
	type pair struct{ p, s int64 }
	shipped := make(map[pair]float64)
	csLpk, csLsk := newCodeStream(lpk), newCodeStream(lsk)
	for row := 0; row < lt.Rows(); row++ {
		d := ship.Get(row)
		if d < lo || d >= hi {
			continue
		}
		pcRaw, _ := csLpk.code(row)
		scRaw, _ := csLsk.code(row)
		shipped[pair{liPartToPart[pcRaw], liSuppToSupp[scRaw]}] += qty.Get(row)
	}

	pst := view.Table("partsupp")
	psPart := pst.Str("ps_partkey")
	psSupp := pst.Str("ps_suppkey")
	avail := pst.Int("ps_availqty")
	psPartToPart := colstore.TranslateCodes(psPart, pt.Str("p_partkey"))
	psSuppToSupp := colstore.TranslateCodes(psSupp, st.Str("s_suppkey"))

	candidates := make(map[int64]bool) // s_suppkey codes
	csPsPart, csPsSupp := newCodeStream(psPart), newCodeStream(psSupp)
	for row := 0; row < pst.Rows(); row++ {
		pcRaw, _ := csPsPart.code(row)
		pc := psPartToPart[pcRaw]
		if pc < 0 {
			continue
		}
		prow := partRowByCode[pc]
		if prow < 0 || !partForest[prow] {
			continue
		}
		scRaw, _ := csPsSupp.code(row)
		sc := psSuppToSupp[scRaw]
		if sc < 0 {
			continue
		}
		if float64(avail.Get(row)) > 0.5*shipped[pair{pc, sc}] && shipped[pair{pc, sc}] > 0 {
			candidates[sc] = true
		}
	}

	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()
	var rows [][]string
	for sc := range candidates {
		srow := int(suppRowByCode[sc])
		if srow < 0 || suppNation[srow] != int64(ca) {
			continue
		}
		rows = append(rows, []string{
			st.Str("s_name").Get(srow),
			st.Str("s_address").Get(srow),
		})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return a[0] < b[0] })
	return &Result{Query: 20, Columns: []string{"s_name", "s_address"}, Rows: rows}
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
	sa, _, okSA := nationKeyCode(view, "SAUDI ARABIA")
	if !okSA {
		return &Result{Query: 21}
	}
	st := view.Table("supplier")
	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()

	ot := view.Table("orders")
	status := ot.Str("o_orderstatus")
	fCode, fOK := status.Locate("F")
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	lsk := lt.Str("l_suppkey")
	commit := lt.Int("l_commitdate")
	recv := lt.Int("l_receiptdate")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))

	// Per order: set of suppliers, set of late suppliers.
	suppsOf := make(map[int64]map[int64]bool)
	lateOf := make(map[int64]map[int64]bool)
	csLok, csLsk, csStatus := newCodeStream(lok), newCodeStream(lsk), newCodeStream(status)
	for row := 0; row < lt.Rows(); row++ {
		lcRaw, _ := csLok.code(row)
		oc := liOrderToOrder[lcRaw]
		if oc < 0 {
			continue
		}
		orow := orderRowByCode[oc]
		if orow < 0 {
			continue
		}
		sc0, _ := csStatus.code(int(orow))
		if !fOK || sc0 != fCode {
			continue
		}
		scRaw, _ := csLsk.code(row)
		sc := liSuppToSupp[scRaw]
		if sc < 0 {
			continue
		}
		if suppsOf[oc] == nil {
			suppsOf[oc] = make(map[int64]bool)
		}
		suppsOf[oc][sc] = true
		if recv.Get(row) > commit.Get(row) {
			if lateOf[oc] == nil {
				lateOf[oc] = make(map[int64]bool)
			}
			lateOf[oc][sc] = true
		}
	}

	waiting := make(map[int64]int) // s_suppkey code -> count
	for oc, late := range lateOf {
		if len(late) != 1 || len(suppsOf[oc]) < 2 {
			continue
		}
		for sc := range late {
			srow := suppRowByCode[sc]
			if srow >= 0 && suppNation[srow] == int64(sa) {
				waiting[sc]++
			}
		}
	}

	var rows [][]string
	for sc, n := range waiting {
		srow := int(suppRowByCode[sc])
		rows = append(rows, []string{st.Str("s_name").Get(srow), strconvItoa(n)})
	}
	rows = sortRows(rows, 100, func(a, b []string) bool {
		if a[1] != b[1] {
			return parseF(a[1]) > parseF(b[1])
		}
		return a[0] < b[0]
	})
	return &Result{Query: 21, Columns: []string{"s_name", "numwait"}, Rows: rows}
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
	codes := map[string]bool{"13": true, "31": true, "23": true, "29": true, "30": true, "18": true, "17": true}
	ct := view.Table("customer")
	phone := ct.Str("c_phone")
	bal := ct.Float("c_acctbal")

	inCodes := phone.CodeSet(func(v string) bool { return len(v) >= 2 && codes[v[:2]] })

	// avg positive balance over customers in the code set
	var sum float64
	var n int
	csPhone := newCodeStream(phone)
	for row := 0; row < ct.Rows(); row++ {
		pc, _ := csPhone.code(row)
		if inCodes[pc] && bal.Get(row) > 0 {
			sum += bal.Get(row)
			n++
		}
	}
	if n == 0 {
		return &Result{Query: 22, Columns: []string{"cntrycode", "numcust", "totacctbal"}}
	}
	avg := sum / float64(n)

	// Customers with at least one order.
	ot := view.Table("orders")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	hasOrder := make(map[int64]bool)
	csOCust := newCodeStream(ocust)
	for row := 0; row < ot.Rows(); row++ {
		ccRaw, _ := csOCust.code(row)
		if cc := oCustToCust[ccRaw]; cc >= 0 {
			hasOrder[cc] = true
		}
	}

	type agg struct {
		n   int
		sum float64
	}
	byCode := make(map[string]*agg)
	custKey := ct.Str("c_custkey")
	csCustKey := newCodeStream(custKey)
	var buf []byte
	for row := 0; row < ct.Rows(); row++ {
		pc, _ := csPhone.code(row)
		if !inCodes[pc] || bal.Get(row) <= avg {
			continue
		}
		kc, _ := csCustKey.code(row)
		if hasOrder[int64(kc)] {
			continue
		}
		buf = phone.AppendExtract(buf[:0], pc)
		cc := string(buf[:2])
		a := byCode[cc]
		if a == nil {
			a = &agg{}
			byCode[cc] = a
		}
		a.n++
		a.sum += bal.Get(row)
	}

	var rows [][]string
	for cc, a := range byCode {
		rows = append(rows, []string{cc, strconvItoa(a.n), f2(a.sum)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return a[0] < b[0] })
	return &Result{Query: 22, Columns: []string{"cntrycode", "numcust", "totacctbal"}, Rows: rows}
}
