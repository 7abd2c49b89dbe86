package tpch

// TPC-H queries 1-11. Each is a hand-written physical plan over the
// colstore engine: constants cost one dictionary locate, foreign-key joins
// run on value IDs via dictionary translation (TableView.Join) and give key
// rows, columns are read as value IDs in bulk (TableView.Codes), and result
// strings are extracted only for surviving groups/rows. A group-by on a key
// table's rows is a dense array indexed by row; a revenue term is positive
// (quantity >= 1, discount < 1), so a zero sum is a group nothing fell in.

import (
	"strconv"
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
	rf, ls := lt.Codes("l_returnflag"), lt.Codes("l_linestatus")
	cutoff := Date("1998-12-01") - 90

	type agg struct {
		qty, base, discounted, charge, discSum float64
		n                                      int
	}
	nls := uint32(lt.Str("l_linestatus").DictLen())
	groups := make([]agg, int(nls)*lt.Str("l_returnflag").DictLen()) // by rf*nls + ls
	for row := range rf {
		// A row without value IDs (unmerged delta) falls in no group.
		if ship.Get(row) > cutoff || rf[row] == colstore.NoCode || ls[row] == colstore.NoCode {
			continue
		}
		a := &groups[rf[row]*nls+ls[row]]
		q, e, d, t := qty.Get(row), ext.Get(row), disc.Get(row), tax.Get(row)
		a.qty += q
		a.base += e
		a.discounted += e * (1 - d)
		a.charge += e * (1 - d) * (1 + t)
		a.discSum += d
		a.n++
	}

	var rows [][]string
	for k, a := range groups {
		if a.n == 0 {
			continue
		}
		n := float64(a.n)
		rows = append(rows, []string{
			lt.Str("l_returnflag").Extract(uint32(k) / nls),
			lt.Str("l_linestatus").Extract(uint32(k) % nls),
			f2(a.qty), f2(a.base), f2(a.discounted), f2(a.charge),
			f2(a.qty / n), f2(a.base / n), f2(a.discSum / n),
			strconv.Itoa(a.n),
		})
	}
	return &Result{Query: 1, Columns: []string{
		"l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
		"sum_disc_price", "sum_charge", "avg_qty", "avg_price", "avg_disc",
		"count_order"}, Rows: orderBy(rows, 0, str(0), str(1))}
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
	inRegion, nationName := nationsInRegion(view, region)
	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", view.Table("nation"), "n_nationkey")

	// Qualifying parts.
	pt := view.Table("part")
	psize := pt.Int("p_size")
	typeOK := rowsIn(pt.Codes("p_type"),
		pt.Str("p_type").CodeSet(func(v string) bool { return strings.HasSuffix(v, suffix) }))

	// partsupp: min supply cost per part among the region's suppliers.
	pst := view.Table("partsupp")
	cost := pst.Float("ps_supplycost")
	psPart := pst.Join("ps_partkey", pt, "p_partkey")
	psSupp := pst.Join("ps_suppkey", st, "s_suppkey")

	type best struct {
		cost    float64
		suppRow int32
		ok      bool
	}
	minCost := make([]best, pt.Rows()) // by part row
	for row, partRow := range psPart {
		if partRow < 0 || !typeOK[partRow] || psize.Get(int(partRow)) != size {
			continue
		}
		suppRow := psSupp[row]
		if suppRow < 0 || suppNation[suppRow] < 0 || !inRegion[suppNation[suppRow]] {
			continue
		}
		c := cost.Get(row)
		if b := &minCost[partRow]; !b.ok || c < b.cost {
			*b = best{cost: c, suppRow: suppRow, ok: true}
		}
	}

	var rows [][]string
	for prow, b := range minCost {
		if srow := int(b.suppRow); b.ok {
			rows = append(rows, []string{
				f2(st.Float("s_acctbal").Get(srow)),
				st.Str("s_name").Get(srow),
				nationName[suppNation[srow]],
				pt.Str("p_partkey").Get(prow),
				pt.Str("p_mfgr").Get(prow),
				st.Str("s_address").Get(srow),
				st.Str("s_phone").Get(srow),
				st.Str("s_comment").Get(srow),
			})
		}
	}
	return &Result{Query: 2, Columns: []string{
		"s_acctbal", "s_name", "n_name", "p_partkey", "p_mfgr", "s_address",
		"s_phone", "s_comment"}, Rows: orderBy(rows, 100, num(0).down(), str(2), str(1), str(3))}
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
	segCode, segFound := ct.Str("c_mktsegment").Locate("BUILDING")
	seg := ct.Codes("c_mktsegment")

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	oCust := ot.Join("o_custkey", ct, "c_custkey")

	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	revenue := make([]float64, ot.Rows()) // by order row
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		if ship.Get(row) <= cutoff || orow < 0 || odate.Get(int(orow)) >= cutoff {
			continue
		}
		if crow := oCust[orow]; crow < 0 || !segFound || seg[crow] != segCode {
			continue
		}
		revenue[orow] += ext.Get(row) * (1 - disc.Get(row))
	}

	var rows [][]string
	for orow, rev := range revenue {
		if rev > 0 {
			rows = append(rows, []string{
				ot.Str("o_orderkey").Get(orow),
				f2(rev),
				DateString(odate.Get(orow)),
				strconv.Itoa(int(ot.Int("o_shippriority").Get(orow))),
			})
		}
	}
	return &Result{Query: 3, Columns: []string{
		"l_orderkey", "revenue", "o_orderdate", "o_shippriority"},
		Rows: orderBy(rows, 10, num(1).down(), str(2))}
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
	commit := lt.Int("l_commitdate")
	recv := lt.Int("l_receiptdate")
	ot := view.Table("orders")

	late := make([]bool, ot.Rows()) // order rows with a commit < receipt lineitem
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		if orow >= 0 && commit.Get(row) < recv.Get(row) {
			late[orow] = true
		}
	}

	odate := ot.Int("o_orderdate")
	counts := make(map[uint32]int)
	for row, pc := range ot.Codes("o_orderpriority") {
		if d := odate.Get(row); d >= lo && d < hi && late[row] && pc != colstore.NoCode {
			counts[pc]++
		}
	}

	var rows [][]string
	for pc, n := range counts {
		rows = append(rows, []string{ot.Str("o_orderpriority").Extract(pc), strconv.Itoa(n)})
	}
	return &Result{Query: 4, Columns: []string{"o_orderpriority", "order_count"}, Rows: orderBy(rows, 0, str(0))}
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
	inRegion, nationName := nationsInRegion(view, "ASIA")
	nt := view.Table("nation")
	ct := view.Table("customer")
	custNation := ct.Join("c_nationkey", nt, "n_nationkey")
	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", nt, "n_nationkey")
	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	oCust := ot.Join("o_custkey", ct, "c_custkey")

	lt := view.Table("lineitem")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liSupp := lt.Join("l_suppkey", st, "s_suppkey")
	revenue := make([]float64, nt.Rows()) // by nation row
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		if orow < 0 || odate.Get(int(orow)) < lo || odate.Get(int(orow)) >= hi || liSupp[row] < 0 {
			continue
		}
		sn := suppNation[liSupp[row]]
		if sn < 0 || !inRegion[sn] {
			continue
		}
		if crow := oCust[orow]; crow < 0 || custNation[crow] != sn {
			continue
		}
		revenue[sn] += ext.Get(row) * (1 - disc.Get(row))
	}

	var rows [][]string
	for sn, rev := range revenue {
		if rev > 0 {
			rows = append(rows, []string{nationName[sn], f2(rev)})
		}
	}
	return &Result{Query: 5, Columns: []string{"n_name", "revenue"}, Rows: orderBy(rows, 0, num(1).down())}
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
	fr, okFR := nationRow(view, "FRANCE")
	de, okDE := nationRow(view, "GERMANY")
	if !okFR || !okDE {
		return &Result{Query: 7}
	}
	names := map[int32]string{fr: "FRANCE", de: "GERMANY"}

	nt := view.Table("nation")
	ct := view.Table("customer")
	custNation := ct.Join("c_nationkey", nt, "n_nationkey")
	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", nt, "n_nationkey")
	ot := view.Table("orders")
	oCust := ot.Join("o_custkey", ct, "c_custkey")

	lt := view.Table("lineitem")
	ship := lt.Int("l_shipdate")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrder := lt.Join("l_orderkey", ot, "o_orderkey")

	type gk struct {
		suppN, custN int32
		year         int
	}
	volume := make(map[gk]float64)
	for row, srow := range lt.Join("l_suppkey", st, "s_suppkey") {
		d := ship.Get(row)
		if d < lo || d > hi || srow < 0 || liOrder[row] < 0 {
			continue
		}
		crow := oCust[liOrder[row]]
		if crow < 0 {
			continue
		}
		sn, cn := suppNation[srow], custNation[crow]
		if (sn == fr && cn == de) || (sn == de && cn == fr) {
			volume[gk{sn, cn, yearOf(d)}] += ext.Get(row) * (1 - disc.Get(row))
		}
	}

	var rows [][]string
	for k, v := range volume {
		rows = append(rows, []string{names[k.suppN], names[k.custN], strconv.Itoa(k.year), f2(v)})
	}
	return &Result{Query: 7, Columns: []string{"supp_nation", "cust_nation", "l_year", "revenue"},
		Rows: orderBy(rows, 0, str(0), str(1), str(2))}
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
	inRegion, _ := nationsInRegion(view, "AMERICA")
	br, okBR := nationRow(view, "BRAZIL")
	if !okBR {
		return &Result{Query: 8}
	}

	pt := view.Table("part")
	typeCode, typeFound := pt.Str("p_type").Locate("ECONOMY ANODIZED STEEL")
	ptype := pt.Codes("p_type")

	nt := view.Table("nation")
	ct := view.Table("customer")
	custNation := ct.Join("c_nationkey", nt, "n_nationkey")
	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", nt, "n_nationkey")
	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	oCust := ot.Join("o_custkey", ct, "c_custkey")

	lt := view.Table("lineitem")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrder := lt.Join("l_orderkey", ot, "o_orderkey")
	liSupp := lt.Join("l_suppkey", st, "s_suppkey")

	total := make(map[int]float64)
	brazil := make(map[int]float64)
	for row, prow := range lt.Join("l_partkey", pt, "p_partkey") {
		if prow < 0 || !typeFound || ptype[prow] != typeCode || liOrder[row] < 0 {
			continue
		}
		d := odate.Get(int(liOrder[row]))
		if d < lo || d > hi {
			continue
		}
		crow := oCust[liOrder[row]]
		if crow < 0 || custNation[crow] < 0 || !inRegion[custNation[crow]] || liSupp[row] < 0 {
			continue
		}
		v := ext.Get(row) * (1 - disc.Get(row))
		y := yearOf(d)
		total[y] += v
		if suppNation[liSupp[row]] == br {
			brazil[y] += v
		}
	}

	var rows [][]string
	for y, t := range total {
		share := 0.0
		if t > 0 {
			share = brazil[y] / t
		}
		rows = append(rows, []string{strconv.Itoa(y), f2(share)})
	}
	return &Result{Query: 8, Columns: []string{"o_year", "mkt_share"}, Rows: orderBy(rows, 0, str(0))}
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
	green := rowsIn(pt.Codes("p_name"),
		pt.Str("p_name").CodeSet(func(v string) bool { return strings.Contains(v, "green") }))

	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", view.Table("nation"), "n_nationkey")
	nationName := nationNames(view)

	// ps_supplycost lookup per (part row, supplier row) pair.
	pst := view.Table("partsupp")
	psCost := pst.Float("ps_supplycost")
	psSupp := pst.Join("ps_suppkey", st, "s_suppkey")
	type pair struct{ p, s int32 }
	costOf := make(map[pair]float64, pst.Rows())
	for row, prow := range pst.Join("ps_partkey", pt, "p_partkey") {
		costOf[pair{prow, psSupp[row]}] = psCost.Get(row)
	}

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")

	lt := view.Table("lineitem")
	qty := lt.Float("l_quantity")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	liOrder := lt.Join("l_orderkey", ot, "o_orderkey")
	liSupp := lt.Join("l_suppkey", st, "s_suppkey")

	type gk struct {
		nation int32
		year   int
	}
	profit := make(map[gk]float64)
	for row, prow := range lt.Join("l_partkey", pt, "p_partkey") {
		srow, orow := liSupp[row], liOrder[row]
		if prow < 0 || !green[prow] || srow < 0 || orow < 0 {
			continue
		}
		amount := ext.Get(row)*(1-disc.Get(row)) - costOf[pair{prow, srow}]*qty.Get(row)
		profit[gk{suppNation[srow], yearOf(odate.Get(int(orow)))}] += amount
	}

	var rows [][]string
	for k, v := range profit {
		rows = append(rows, []string{nationName[k.nation], strconv.Itoa(k.year), f2(v)})
	}
	return &Result{Query: 9, Columns: []string{"nation", "o_year", "sum_profit"},
		Rows: orderBy(rows, 0, str(0), str(1).down())}
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
	custNation := ct.Join("c_nationkey", view.Table("nation"), "n_nationkey")
	nationName := nationNames(view)

	ot := view.Table("orders")
	odate := ot.Int("o_orderdate")
	oCust := ot.Join("o_custkey", ct, "c_custkey")

	lt := view.Table("lineitem")
	ext := lt.Float("l_extendedprice")
	disc := lt.Float("l_discount")
	retCode, retFound := lt.Str("l_returnflag").Locate("R")
	ret := lt.Codes("l_returnflag")

	revenue := make([]float64, ct.Rows()) // by customer row
	for row, orow := range lt.Join("l_orderkey", ot, "o_orderkey") {
		if !retFound || ret[row] != retCode || orow < 0 {
			continue
		}
		if d := odate.Get(int(orow)); d < lo || d >= hi {
			continue
		}
		if crow := oCust[orow]; crow >= 0 {
			revenue[crow] += ext.Get(row) * (1 - disc.Get(row))
		}
	}

	var rows [][]string
	for crow, rev := range revenue {
		if rev == 0 {
			continue
		}
		rows = append(rows, []string{
			ct.Str("c_custkey").Get(crow),
			ct.Str("c_name").Get(crow),
			f2(rev),
			f2(ct.Float("c_acctbal").Get(crow)),
			nationName[custNation[crow]],
			ct.Str("c_address").Get(crow),
			ct.Str("c_phone").Get(crow),
			ct.Str("c_comment").Get(crow),
		})
	}
	return &Result{Query: 10, Columns: []string{
		"c_custkey", "c_name", "revenue", "c_acctbal", "n_name", "c_address",
		"c_phone", "c_comment"}, Rows: orderBy(rows, 20, num(2).down())}
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
	de, okDE := nationRow(view, "GERMANY")
	if !okDE {
		return &Result{Query: 11}
	}
	st := view.Table("supplier")
	suppNation := st.Join("s_nationkey", view.Table("nation"), "n_nationkey")

	pst := view.Table("partsupp")
	qty := pst.Int("ps_availqty")
	cost := pst.Float("ps_supplycost")
	psPart := pst.Codes("ps_partkey")

	value := make(map[uint32]float64) // by ps_partkey code
	var total float64
	for row, srow := range pst.Join("ps_suppkey", st, "s_suppkey") {
		if srow < 0 || suppNation[srow] != de || psPart[row] == colstore.NoCode {
			continue
		}
		v := cost.Get(row) * float64(qty.Get(row))
		value[psPart[row]] += v
		total += v
	}

	// The spec's fraction is 0.0001/SF; with our generated sizes the
	// equivalent cut is a constant fraction of the total.
	threshold := total * 0.0001
	var rows [][]string
	for pc, v := range value {
		if v > threshold {
			rows = append(rows, []string{pst.Str("ps_partkey").Extract(pc), f2(v)})
		}
	}
	return &Result{Query: 11, Columns: []string{"ps_partkey", "value"}, Rows: orderBy(rows, 0, num(1).down())}
}
