package tpch

// TPC-H queries 1-11. Each is a hand-written physical plan over the
// colstore engine: constants cost one dictionary locate, joins run on value
// IDs via dictionary translation, and result strings are extracted only for
// surviving groups/rows.

import (
	"strings"

	"strdict/internal/colstore"
)

// plan1 — Pricing Summary Report: scan lineitem up to a ship-date cutoff,
// aggregate by (returnflag, linestatus).
//
// Reference SQL:
//
//	select l_returnflag, l_linestatus, sum(l_quantity), sum(l_extendedprice),
//	       sum(l_extendedprice*(1-l_discount)),
//	       sum(l_extendedprice*(1-l_discount)*(1+l_tax)),
//	       avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*)
//	from lineitem where l_shipdate <= date '1998-12-01' - interval '90' day
//	group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus
func plan1(view *colstore.View) *Result {
	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	tax := lt.Float("l_tax")
	srf := lt.Str("l_returnflag")
	sls := lt.Str("l_linestatus")
	cutoff := Date("1998-12-01") - 90

	// Main-part codes come out of the vector in chunks of groupChunk via
	// AppendCodeRange instead of one Vector.Get per row; the (rare) unmerged
	// delta rows keep the per-row Code fallback with its original "delta
	// rows group as code 0" behavior.
	const groupChunk = 256
	nMain := srf.MainRows()
	if m := sls.MainRows(); m < nMain {
		nMain = m
	}

	type agg struct {
		qty, base, discounted, charge, discSum float64
		n                                      int
	}
	groups := make(map[uint64]*agg)
	var rfBuf, lsBuf [groupChunk]uint64
	total := lt.Rows()
	for base := 0; base < total; base += groupChunk {
		k := total - base
		if k > groupChunk {
			k = groupChunk
		}
		var rfCodes, lsCodes []uint64
		if base+k <= nMain {
			rfCodes = srf.AppendCodeRange(rfBuf[:0], base, k)
			lsCodes = sls.AppendCodeRange(lsBuf[:0], base, k)
		}
		for j := 0; j < k; j++ {
			row := base + j
			if ship.Get(row) > cutoff {
				continue
			}
			var gk uint64
			if rfCodes != nil {
				gk = rfCodes[j]<<32 | lsCodes[j]
			} else {
				rc, _ := srf.Code(row)
				lc, _ := sls.Code(row)
				gk = uint64(rc)<<32 | uint64(lc)
			}
			a := groups[gk]
			if a == nil {
				a = &agg{}
				groups[gk] = a
			}
			q, e, d, t := qty.Get(row), ext.Get(row), disc.Get(row), tax.Get(row)
			a.qty += q
			a.base += e
			a.discounted += e * (1 - d)
			a.charge += e * (1 - d) * (1 + t)
			a.discSum += d
			a.n++
		}
	}

	var rows [][]string
	for k, a := range groups {
		n := float64(a.n)
		rows = append(rows, []string{
			srf.Extract(uint32(k >> 32)),
			sls.Extract(uint32(k & 0xffffffff)),
			f2(a.qty), f2(a.base), f2(a.discounted), f2(a.charge),
			f2(a.qty / n), f2(a.base / n), f2(a.discSum / n),
			strconvItoa(a.n),
		})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool {
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
	return &Result{Query: 1, Columns: []string{
		"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
		"sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc",
		"count_order"}, Rows: rows}
}

// plan2 — Minimum Cost Supplier: for BRASS parts of size 15, the cheapest
// European supplier per part.
//
// Reference SQL:
//
//	select s_acctbal, s_name, n_name, p_partkey, p_mfgr, s_address, s_phone, s_comment
//	from part, supplier, partsupp, nation, region
//	where p_partkey = ps_partkey and s_suppkey = ps_suppkey and p_size = 15
//	  and p_type like '%BRASS' and s_nationkey = n_nationkey
//	  and n_regionkey = r_regionkey and r_name = 'EUROPE'
//	  and ps_supplycost = (select min(ps_supplycost) from partsupp, supplier,
//	       nation, region where p_partkey = ps_partkey and s_suppkey = ps_suppkey
//	       and s_nationkey = n_nationkey and n_regionkey = r_regionkey
//	       and r_name = 'EUROPE')
//	order by s_acctbal desc, n_name, s_name, p_partkey limit 100
func plan2(view *colstore.View) *Result {
	const (
		size   = 15
		suffix = "BRASS"
		region = "EUROPE"
	)
	nationKeys, nationNames := keysOfNationsInRegion(view, region)

	// European suppliers: supplier row -> nation code, via translating
	// s_nationkey into the nation table's n_nationkey code space.
	st := view.Table("supplier")
	snk := st.Str("s_nationkey")
	toNation := colstore.TranslateCodes(snk, view.Table("nation").Str("n_nationkey"))
	suppNation := make([]int64, st.Rows()) // row -> n_nationkey code or -1
	csSnk := newCodeStream(snk)
	for row := 0; row < st.Rows(); row++ {
		code, _ := csSnk.code(row)
		nc := toNation[code]
		if nc >= 0 && nationKeys[uint32(nc)] {
			suppNation[row] = nc
		} else {
			suppNation[row] = -1
		}
	}
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()

	// Qualifying parts.
	pt := view.Table("part")
	ptype := pt.Str("p_type")
	psize := pt.Int("p_size")
	typeOK := ptype.CodeSet(func(v string) bool { return strings.HasSuffix(v, suffix) })
	partOK := make([]bool, pt.Rows())
	csPType := newCodeStream(ptype)
	for row := 0; row < pt.Rows(); row++ {
		code, _ := csPType.code(row)
		partOK[row] = typeOK[code] && psize.Get(row) == size
	}
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	// partsupp: min supply cost per part among European suppliers.
	pst := view.Table("partsupp")
	psPart := pst.Str("ps_partkey")
	psSupp := pst.Str("ps_suppkey")
	cost := pst.Float("ps_supplycost")
	psPartToPart := colstore.TranslateCodes(psPart, pt.Str("p_partkey"))
	psSuppToSupp := colstore.TranslateCodes(psSupp, st.Str("s_suppkey"))

	type best struct {
		cost    float64
		suppRow int32
		partRow int32
	}
	minCost := make(map[uint32]*best) // by ps_partkey code
	csPsPart, csPsSupp := newCodeStream(psPart), newCodeStream(psSupp)
	for row := 0; row < pst.Rows(); row++ {
		pc, _ := csPsPart.code(row)
		partRow := keyRow(psPartToPart, partRowByCode, pc)
		if partRow < 0 || !partOK[partRow] {
			continue
		}
		sc, _ := csPsSupp.code(row)
		suppRow := keyRow(psSuppToSupp, suppRowByCode, sc)
		if suppRow < 0 || suppNation[suppRow] < 0 {
			continue
		}
		c := cost.Get(row)
		if b, ok := minCost[pc]; !ok || c < b.cost {
			minCost[pc] = &best{cost: c, suppRow: suppRow, partRow: partRow}
		}
	}

	bal := st.Float("s_acctbal")
	var rows [][]string
	for _, b := range minCost {
		rows = append(rows, []string{
			f2(bal.Get(int(b.suppRow))),
			st.Str("s_name").Get(int(b.suppRow)),
			nationNames[uint32(suppNation[b.suppRow])],
			pt.Str("p_partkey").Get(int(b.partRow)),
			pt.Str("p_mfgr").Get(int(b.partRow)),
			st.Str("s_address").Get(int(b.suppRow)),
			st.Str("s_phone").Get(int(b.suppRow)),
			st.Str("s_comment").Get(int(b.suppRow)),
		})
	}
	rows = sortRows(rows, 100, func(a, b []string) bool {
		if a[0] != b[0] {
			return parseF(a[0]) > parseF(b[0])
		}
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[3] < b[3]
	})
	return &Result{Query: 2, Columns: []string{
		"s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address",
		"s_phone", "s_comment"}, Rows: rows}
}

// plan3 — Shipping Priority: top 10 unshipped orders of BUILDING customers by
// revenue.
//
// Reference SQL:
//
//	select l_orderkey, sum(l_extendedprice*(1-l_discount)) as revenue,
//	       o_orderdate, o_shippriority
//	from customer, orders, lineitem
//	where c_mktsegment = 'BUILDING' and c_custkey = o_custkey
//	  and l_orderkey = o_orderkey and o_orderdate < date '1995-03-15'
//	  and l_shipdate > date '1995-03-15'
//	group by l_orderkey, o_orderdate, o_shippriority
//	order by revenue desc, o_orderdate limit 10
func plan3(view *colstore.View) *Result {
	cutoff := Date("1995-03-15")
	ct := view.Table("customer")
	seg := ct.Str("c_mktsegment")
	segCode, segFound := seg.Locate("BUILDING")
	custOK := rowFlags(ct.Rows(), seg, func(code uint32) bool { return segFound && code == segCode })
	custRowByCode := ct.Str("c_custkey").RowIndexByCode()

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	shipPrio := ot.Int("o_shippriority")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	orderPass := make([]bool, ot.Rows())
	csOCust := newCodeStream(ocust)
	for row := 0; row < ot.Rows(); row++ {
		if odate.Get(row) >= cutoff {
			continue
		}
		cc, _ := csOCust.code(row)
		custRow := keyRow(oCustToCust, custRowByCode, cc)
		orderPass[row] = custRow >= 0 && custOK[custRow]
	}
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	revenue := make(map[int64]float64) // by o_orderkey code
	csLok := newCodeStream(lok)
	for row := 0; row < lt.Rows(); row++ {
		if ship.Get(row) <= cutoff {
			continue
		}
		lc, _ := csLok.code(row)
		oc := liOrderToOrder[lc]
		if oc < 0 {
			continue
		}
		orow := orderRowByCode[oc]
		if orow < 0 || !orderPass[orow] {
			continue
		}
		revenue[oc] += ext.Get(row) * (1 - disc.Get(row))
	}

	var rows [][]string
	for oc, rev := range revenue {
		orow := int(orderRowByCode[oc])
		rows = append(rows, []string{
			ot.Str("o_orderkey").Extract(uint32(oc)),
			f2(rev),
			DateString(odate.Get(orow)),
			strconvItoa(int(shipPrio.Get(orow))),
		})
	}
	rows = sortRows(rows, 10, func(a, b []string) bool {
		if a[1] != b[1] {
			return parseF(a[1]) > parseF(b[1])
		}
		return a[2] < b[2]
	})
	return &Result{Query: 3, Columns: []string{
		"l_orderkey", "revenue", "o_orderdate", "o_shippriority"}, Rows: rows}
}

// plan4 — Order Priority Checking: orders of 1993Q3 with at least one late
// lineitem, counted per priority.
//
// Reference SQL:
//
//	select o_orderpriority, count(*) from orders
//	where o_orderdate >= date '1993-07-01'
//	  and o_orderdate < date '1993-07-01' + interval '3' month
//	  and exists (select * from lineitem where l_orderkey = o_orderkey
//	       and l_commitdate < l_receiptdate)
//	group by o_orderpriority order by o_orderpriority
func plan4(view *colstore.View) *Result {
	lo, hi := Date("1993-07-01"), Date("1993-10-01")
	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	commit := lt.Int("l_commitdate")
	recv := lt.Int("l_receiptdate")
	ot := view.Table("orders")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))

	lateOrder := make(map[int64]bool) // o_orderkey codes with commit < receipt
	csLok := newCodeStream(lok)
	for row := 0; row < lt.Rows(); row++ {
		if commit.Get(row) < recv.Get(row) {
			lc, _ := csLok.code(row)
			if oc := liOrderToOrder[lc]; oc >= 0 {
				lateOrder[oc] = true
			}
		}
	}

	odate := ot.Int("o_orderdate")
	prio := ot.Str("o_orderpriority")
	okey := ot.Str("o_orderkey")
	counts := make(map[uint32]int)
	csOkey, csPrio := newCodeStream(okey), newCodeStream(prio)
	for row := 0; row < ot.Rows(); row++ {
		d := odate.Get(row)
		if d < lo || d >= hi {
			continue
		}
		kc, _ := csOkey.code(row)
		if !lateOrder[int64(kc)] {
			continue
		}
		pc, _ := csPrio.code(row)
		counts[pc]++
	}

	var rows [][]string
	for pc, n := range counts {
		rows = append(rows, []string{prio.Extract(pc), strconvItoa(n)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return a[0] < b[0] })
	return &Result{Query: 4, Columns: []string{"o_orderpriority", "order_count"}, Rows: rows}
}

// plan5 — Local Supplier Volume: revenue in ASIA from orders of 1994 where the
// customer and supplier share a nation.
//
// Reference SQL:
//
//	select n_name, sum(l_extendedprice*(1-l_discount)) as revenue
//	from customer, orders, lineitem, supplier, nation, region
//	where c_custkey = o_custkey and l_orderkey = o_orderkey
//	  and l_suppkey = s_suppkey and c_nationkey = s_nationkey
//	  and s_nationkey = n_nationkey and n_regionkey = r_regionkey
//	  and r_name = 'ASIA' and o_orderdate >= date '1994-01-01'
//	  and o_orderdate < date '1995-01-01'
//	group by n_name order by revenue desc
func plan5(view *colstore.View) *Result {
	lo, hi := Date("1994-01-01"), Date("1995-01-01")
	nationKeys, nationNames := keysOfNationsInRegion(view, "ASIA")

	ct := view.Table("customer")
	custNation := rowToNationCode(view, ct.Str("c_nationkey"))
	custRowByCode := ct.Str("c_custkey").RowIndexByCode()

	st := view.Table("supplier")
	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	lsk := lt.Str("l_suppkey")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))

	revenue := make(map[int64]float64) // by nation code
	csLok, csLsk, csOCust := newCodeStream(lok), newCodeStream(lsk), newCodeStream(ocust)
	for row := 0; row < lt.Rows(); row++ {
		lc, _ := csLok.code(row)
		orow := keyRow(liOrderToOrder, orderRowByCode, lc)
		if orow < 0 {
			continue
		}
		if d := odate.Get(int(orow)); d < lo || d >= hi {
			continue
		}
		scRaw, _ := csLsk.code(row)
		srow := keyRow(liSuppToSupp, suppRowByCode, scRaw)
		if srow < 0 {
			continue
		}
		sn := suppNation[srow]
		if sn < 0 || !nationKeys[uint32(sn)] {
			continue
		}
		ccRaw, _ := csOCust.code(int(orow))
		crow := keyRow(oCustToCust, custRowByCode, ccRaw)
		if crow < 0 || custNation[crow] != sn {
			continue
		}
		revenue[sn] += ext.Get(row) * (1 - disc.Get(row))
	}

	var rows [][]string
	for nc, rev := range revenue {
		rows = append(rows, []string{nationNames[uint32(nc)], f2(rev)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return parseF(a[1]) > parseF(b[1]) })
	return &Result{Query: 5, Columns: []string{"n_name", "revenue"}, Rows: rows}
}

// plan6 — Forecasting Revenue Change: pure numeric scan of lineitem.
//
// Reference SQL:
//
//	select sum(l_extendedprice*l_discount) from lineitem
//	where l_shipdate >= date '1994-01-01' and l_shipdate < date '1995-01-01'
//	  and l_discount between 0.05 and 0.07 and l_quantity < 24
func plan6(view *colstore.View) *Result {
	lo, hi := Date("1994-01-01"), Date("1995-01-01")
	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	var revenue float64
	for row := 0; row < lt.Rows(); row++ {
		d := ship.Get(row)
		dc := disc.Get(row)
		if d >= lo && d < hi && dc >= 0.05-1e-9 && dc <= 0.07+1e-9 && qty.Get(row) < 24 {
			revenue += ext.Get(row) * dc
		}
	}
	return &Result{Query: 6, Columns: []string{"revenue"}, Rows: [][]string{{f2(revenue)}}}
}

// plan7 — Volume Shipping: revenue shipped between FRANCE and GERMANY in
// 1995-1996, by supplier nation, customer nation and year.
//
// Reference SQL:
//
//	select supp_nation, cust_nation, l_year, sum(volume) from (
//	  select n1.n_name as supp_nation, n2.n_name as cust_nation,
//	         extract(year from l_shipdate) as l_year,
//	         l_extendedprice*(1-l_discount) as volume
//	  from supplier, lineitem, orders, customer, nation n1, nation n2
//	  where s_suppkey = l_suppkey and o_orderkey = l_orderkey
//	    and c_custkey = o_custkey and s_nationkey = n1.n_nationkey
//	    and c_nationkey = n2.n_nationkey
//	    and ((n1.n_name='FRANCE' and n2.n_name='GERMANY') or
//	         (n1.n_name='GERMANY' and n2.n_name='FRANCE'))
//	    and l_shipdate between date '1995-01-01' and date '1996-12-31')
//	group by supp_nation, cust_nation, l_year order by 1, 2, 3
func plan7(view *colstore.View) *Result {
	lo, hi := Date("1995-01-01"), Date("1996-12-31")
	fr, frName, okFR := nationKeyCode(view, "FRANCE")
	de, deName, okDE := nationKeyCode(view, "GERMANY")
	if !okFR || !okDE {
		return &Result{Query: 7}
	}
	names := map[uint32]string{fr: frName, de: deName}

	ct := view.Table("customer")
	custNation := rowToNationCode(view, ct.Str("c_nationkey"))
	custRowByCode := ct.Str("c_custkey").RowIndexByCode()
	st := view.Table("supplier")
	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()
	ot := view.Table("orders")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	lsk := lt.Str("l_suppkey")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))

	type gk struct {
		suppN, custN uint32
		year         int
	}
	volume := make(map[gk]float64)
	csLok, csLsk, csOCust := newCodeStream(lok), newCodeStream(lsk), newCodeStream(ocust)
	for row := 0; row < lt.Rows(); row++ {
		d := ship.Get(row)
		if d < lo || d > hi {
			continue
		}
		scRaw, _ := csLsk.code(row)
		srow := keyRow(liSuppToSupp, suppRowByCode, scRaw)
		if srow < 0 {
			continue
		}
		sn := suppNation[srow]
		lcRaw, _ := csLok.code(row)
		orow := keyRow(liOrderToOrder, orderRowByCode, lcRaw)
		if orow < 0 {
			continue
		}
		ccRaw, _ := csOCust.code(int(orow))
		crow := keyRow(oCustToCust, custRowByCode, ccRaw)
		if crow < 0 {
			continue
		}
		cn := custNation[crow]
		pair := (sn == int64(fr) && cn == int64(de)) || (sn == int64(de) && cn == int64(fr))
		if !pair {
			continue
		}
		volume[gk{uint32(sn), uint32(cn), yearOf(d)}] += ext.Get(row) * (1 - disc.Get(row))
	}

	var rows [][]string
	for k, v := range volume {
		rows = append(rows, []string{names[k.suppN], names[k.custN], strconvItoa(k.year), f2(v)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool {
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
	return &Result{Query: 7, Columns: []string{"supp_nation", "cust_nation", "l_year", "revenue"}, Rows: rows}
}

// plan8 — National Market Share: BRAZIL's share of ECONOMY ANODIZED STEEL
// revenue in AMERICA, by year.
//
// Reference SQL:
//
//	select o_year, sum(case when nation='BRAZIL' then volume else 0 end)/sum(volume)
//	from (select extract(year from o_orderdate) as o_year,
//	             l_extendedprice*(1-l_discount) as volume, n2.n_name as nation
//	      from part, supplier, lineitem, orders, customer, nation n1, nation n2, region
//	      where p_partkey = l_partkey and s_suppkey = l_suppkey
//	        and l_orderkey = o_orderkey and o_custkey = c_custkey
//	        and c_nationkey = n1.n_nationkey and n1.n_regionkey = r_regionkey
//	        and r_name = 'AMERICA' and s_nationkey = n2.n_nationkey
//	        and o_orderdate between date '1995-01-01' and date '1996-12-31'
//	        and p_type = 'ECONOMY ANODIZED STEEL')
//	group by o_year order by o_year
func plan8(view *colstore.View) *Result {
	lo, hi := Date("1995-01-01"), Date("1996-12-31")
	amKeys, _ := keysOfNationsInRegion(view, "AMERICA")
	br, _, okBR := nationKeyCode(view, "BRAZIL")
	if !okBR {
		return &Result{Query: 8}
	}

	pt := view.Table("part")
	ptype := pt.Str("p_type")
	typeCode, typeFound := ptype.Locate("ECONOMY ANODIZED STEEL")
	partOK := rowFlags(pt.Rows(), ptype, func(code uint32) bool { return typeFound && code == typeCode })
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	ct := view.Table("customer")
	custNation := rowToNationCode(view, ct.Str("c_nationkey"))
	custRowByCode := ct.Str("c_custkey").RowIndexByCode()
	st := view.Table("supplier")
	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()
	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	lpk := lt.Str("l_partkey")
	lsk := lt.Str("l_suppkey")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	liPartToPart := colstore.TranslateCodes(lpk, pt.Str("p_partkey"))
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))

	total := make(map[int]float64)
	brazil := make(map[int]float64)
	csLok, csLpk, csLsk := newCodeStream(lok), newCodeStream(lpk), newCodeStream(lsk)
	csOCust := newCodeStream(ocust)
	for row := 0; row < lt.Rows(); row++ {
		pcRaw, _ := csLpk.code(row)
		prow := keyRow(liPartToPart, partRowByCode, pcRaw)
		if prow < 0 || !partOK[prow] {
			continue
		}
		lcRaw, _ := csLok.code(row)
		orow := keyRow(liOrderToOrder, orderRowByCode, lcRaw)
		if orow < 0 {
			continue
		}
		d := odate.Get(int(orow))
		if d < lo || d > hi {
			continue
		}
		ccRaw, _ := csOCust.code(int(orow))
		crow := keyRow(oCustToCust, custRowByCode, ccRaw)
		if crow < 0 {
			continue
		}
		cn := custNation[crow]
		if cn < 0 || !amKeys[uint32(cn)] {
			continue
		}
		scRaw, _ := csLsk.code(row)
		srow := keyRow(liSuppToSupp, suppRowByCode, scRaw)
		if srow < 0 {
			continue
		}
		v := ext.Get(row) * (1 - disc.Get(row))
		y := yearOf(d)
		total[y] += v
		if suppNation[srow] == int64(br) {
			brazil[y] += v
		}
	}

	var rows [][]string
	for y, t := range total {
		share := 0.0
		if t > 0 {
			share = brazil[y] / t
		}
		rows = append(rows, []string{strconvItoa(y), f2(share)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return a[0] < b[0] })
	return &Result{Query: 8, Columns: []string{"o_year", "mkt_share"}, Rows: rows}
}

// plan9 — Product Type Profit: profit of parts whose name contains "green",
// by supplier nation and year.
//
// Reference SQL:
//
//	select nation, o_year, sum(amount) from (
//	  select n_name as nation, extract(year from o_orderdate) as o_year,
//	         l_extendedprice*(1-l_discount) - ps_supplycost*l_quantity as amount
//	  from part, supplier, lineitem, partsupp, orders, nation
//	  where s_suppkey = l_suppkey and ps_suppkey = l_suppkey
//	    and ps_partkey = l_partkey and p_partkey = l_partkey
//	    and o_orderkey = l_orderkey and s_nationkey = n_nationkey
//	    and p_name like '%green%')
//	group by nation, o_year order by nation, o_year desc
func plan9(view *colstore.View) *Result {
	pt := view.Table("part")
	pname := pt.Str("p_name")
	greenParts := pname.CodeSet(func(v string) bool { return strings.Contains(v, "green") })
	partOK := rowFlags(pt.Rows(), pname, func(code uint32) bool { return greenParts[code] })
	partRowByCode := pt.Str("p_partkey").RowIndexByCode()

	st := view.Table("supplier")
	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()
	nt := view.Table("nation")
	nationName := make(map[int64]string)
	csNK := newCodeStream(nt.Str("n_nationkey"))
	for row := 0; row < nt.Rows(); row++ {
		kc, _ := csNK.code(row)
		nationName[int64(kc)] = nt.Str("n_name").Get(row)
	}

	// ps_supplycost lookup per (part, supp) pair.
	pst := view.Table("partsupp")
	psPart := pst.Str("ps_partkey")
	psSupp := pst.Str("ps_suppkey")
	psCost := pst.Float("ps_supplycost")
	type pair struct{ p, s int64 }
	costOf := make(map[pair]float64, pst.Rows())
	psPartToPart := colstore.TranslateCodes(psPart, pt.Str("p_partkey"))
	psSuppToSupp := colstore.TranslateCodes(psSupp, st.Str("s_suppkey"))
	csPsPart, csPsSupp := newCodeStream(psPart), newCodeStream(psSupp)
	for row := 0; row < pst.Rows(); row++ {
		pcRaw, _ := csPsPart.code(row)
		scRaw, _ := csPsSupp.code(row)
		costOf[pair{psPartToPart[pcRaw], psSuppToSupp[scRaw]}] = psCost.Get(row)
	}

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	lpk := lt.Str("l_partkey")
	lsk := lt.Str("l_suppkey")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))
	liPartToPart := colstore.TranslateCodes(lpk, pt.Str("p_partkey"))
	liSuppToSupp := colstore.TranslateCodes(lsk, st.Str("s_suppkey"))

	type gk struct {
		nation int64
		year   int
	}
	profit := make(map[gk]float64)
	csLok, csLpk, csLsk := newCodeStream(lok), newCodeStream(lpk), newCodeStream(lsk)
	for row := 0; row < lt.Rows(); row++ {
		pcRaw, _ := csLpk.code(row)
		pc := liPartToPart[pcRaw]
		if pc < 0 {
			continue
		}
		prow := partRowByCode[pc]
		if prow < 0 || !partOK[prow] {
			continue
		}
		scRaw, _ := csLsk.code(row)
		sc := liSuppToSupp[scRaw]
		if sc < 0 {
			continue
		}
		srow := suppRowByCode[sc]
		if srow < 0 {
			continue
		}
		lcRaw, _ := csLok.code(row)
		orow := keyRow(liOrderToOrder, orderRowByCode, lcRaw)
		if orow < 0 {
			continue
		}
		amount := ext.Get(row)*(1-disc.Get(row)) - costOf[pair{pc, sc}]*qty.Get(row)
		profit[gk{suppNation[srow], yearOf(odate.Get(int(orow)))}] += amount
	}

	var rows [][]string
	for k, v := range profit {
		rows = append(rows, []string{nationName[k.nation], strconvItoa(k.year), f2(v)})
	}
	rows = sortRows(rows, 0, func(a, b []string) bool {
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] > b[1]
	})
	return &Result{Query: 9, Columns: []string{"nation", "o_year", "sum_profit"}, Rows: rows}
}

// plan10 — Returned Item Reporting: top 20 customers by lost revenue in 1993Q4.
//
// Reference SQL:
//
//	select c_custkey, c_name, sum(l_extendedprice*(1-l_discount)) as revenue,
//	       c_acctbal, n_name, c_address, c_phone, c_comment
//	from customer, orders, lineitem, nation
//	where c_custkey = o_custkey and l_orderkey = o_orderkey
//	  and o_orderdate >= date '1993-10-01' and o_orderdate < date '1994-01-01'
//	  and l_returnflag = 'R' and c_nationkey = n_nationkey
//	group by ... order by revenue desc limit 20
func plan10(view *colstore.View) *Result {
	lo, hi := Date("1993-10-01"), Date("1994-01-01")
	ct := view.Table("customer")
	custRowByCode := ct.Str("c_custkey").RowIndexByCode()
	custNation := rowToNationCode(view, ct.Str("c_nationkey"))
	nt := view.Table("nation")
	nationName := make(map[int64]string)
	csNK := newCodeStream(nt.Str("n_nationkey"))
	for row := 0; row < nt.Rows(); row++ {
		kc, _ := csNK.code(row)
		nationName[int64(kc)] = nt.Str("n_name").Get(row)
	}

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	ocust := ot.Str("o_custkey")
	oCustToCust := colstore.TranslateCodes(ocust, ct.Str("c_custkey"))
	orderRowByCode := ot.Str("o_orderkey").RowIndexByCode()

	lt := view.Table("lineitem")
	lok := lt.Str("l_orderkey")
	lret := lt.Str("l_returnflag")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	retCode, retFound := lret.Locate("R")
	liOrderToOrder := colstore.TranslateCodes(lok, ot.Str("o_orderkey"))

	revenue := make(map[int64]float64) // by c_custkey code
	csLok, csLret, csOCust := newCodeStream(lok), newCodeStream(lret), newCodeStream(ocust)
	for row := 0; row < lt.Rows(); row++ {
		rc, _ := csLret.code(row)
		if !retFound || rc != retCode {
			continue
		}
		lcRaw, _ := csLok.code(row)
		orow := keyRow(liOrderToOrder, orderRowByCode, lcRaw)
		if orow < 0 {
			continue
		}
		if d := odate.Get(int(orow)); d < lo || d >= hi {
			continue
		}
		ccRaw, _ := csOCust.code(int(orow))
		cc := oCustToCust[ccRaw]
		if cc < 0 {
			continue
		}
		revenue[cc] += ext.Get(row) * (1 - disc.Get(row))
	}

	var rows [][]string
	for cc, rev := range revenue {
		crow := int(custRowByCode[cc])
		rows = append(rows, []string{
			ct.Str("c_custkey").Extract(uint32(cc)),
			ct.Str("c_name").Get(crow),
			f2(rev),
			f2(ct.Float("c_acctbal").Get(crow)),
			nationName[custNation[crow]],
			ct.Str("c_address").Get(crow),
			ct.Str("c_phone").Get(crow),
			ct.Str("c_comment").Get(crow),
		})
	}
	rows = sortRows(rows, 20, func(a, b []string) bool { return parseF(a[2]) > parseF(b[2]) })
	return &Result{Query: 10, Columns: []string{
		"c_custkey", "c_name", "revenue", "c_acctbal", "n_name", "c_address",
		"c_phone", "c_comment"}, Rows: rows}
}

// plan11 — Important Stock Identification: GERMANY's part stock values above
// a fraction of the total.
//
// Reference SQL:
//
//	select ps_partkey, sum(ps_supplycost*ps_availqty) as value
//	from partsupp, supplier, nation
//	where ps_suppkey = s_suppkey and s_nationkey = n_nationkey
//	  and n_name = 'GERMANY'
//	group by ps_partkey
//	having sum(ps_supplycost*ps_availqty) >
//	  (select sum(ps_supplycost*ps_availqty) * 0.0001 from ... same joins ...)
//	order by value desc
func plan11(view *colstore.View) *Result {
	de, _, okDE := nationKeyCode(view, "GERMANY")
	if !okDE {
		return &Result{Query: 11}
	}
	st := view.Table("supplier")
	suppNation := rowToNationCode(view, st.Str("s_nationkey"))
	suppRowByCode := st.Str("s_suppkey").RowIndexByCode()

	pst := view.Table("partsupp")
	psPart := pst.Str("ps_partkey")
	psSupp := pst.Str("ps_suppkey")
	qty := pst.Int("ps_availqty")
	cost := pst.Float("ps_supplycost")
	psSuppToSupp := colstore.TranslateCodes(psSupp, st.Str("s_suppkey"))

	value := make(map[uint32]float64) // by ps_partkey code
	var total float64
	csPsPart, csPsSupp := newCodeStream(psPart), newCodeStream(psSupp)
	for row := 0; row < pst.Rows(); row++ {
		scRaw, _ := csPsSupp.code(row)
		srow := keyRow(psSuppToSupp, suppRowByCode, scRaw)
		if srow < 0 || suppNation[srow] != int64(de) {
			continue
		}
		pc, _ := csPsPart.code(row)
		v := cost.Get(row) * float64(qty.Get(row))
		value[pc] += v
		total += v
	}

	// The spec's fraction is 0.0001/SF; with our generated sizes the
	// equivalent cut is a constant fraction of the total.
	threshold := total * 0.0001
	var rows [][]string
	for pc, v := range value {
		if v > threshold {
			rows = append(rows, []string{psPart.Extract(pc), f2(v)})
		}
	}
	rows = sortRows(rows, 0, func(a, b []string) bool { return parseF(a[1]) > parseF(b[1]) })
	return &Result{Query: 11, Columns: []string{"ps_partkey", "value"}, Rows: rows}
}
