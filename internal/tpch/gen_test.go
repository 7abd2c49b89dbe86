package tpch

// Generator fidelity tests: the distributions the 22 queries depend on.

import (
	"strings"
	"testing"
)

func TestGenDatesInRange(t *testing.T) {
	s := store(t)
	lt, ot := s.Table("lineitem"), s.Table("orders")
	lo, hi := Date("1992-01-01"), Date("1998-12-31")
	for row := 0; row < ot.Rows(); row += 7 {
		d := ot.Int("o_orderdate").Get(row)
		if d < lo || d > hi {
			t.Fatalf("o_orderdate %s out of range", DateString(d))
		}
	}
	for row := 0; row < lt.Rows(); row += 13 {
		ship := lt.Int("l_shipdate").Get(row)
		recv := lt.Int("l_receiptdate").Get(row)
		if recv <= ship {
			t.Fatalf("receipt %s not after ship %s", DateString(recv), DateString(ship))
		}
	}
}

func TestGenNumericRanges(t *testing.T) {
	s := store(t)
	lt := s.Table("lineitem")
	for row := 0; row < lt.Rows(); row += 11 {
		q := lt.Float("l_quantity").Get(row)
		if q < 1 || q > 50 {
			t.Fatalf("quantity %g out of [1,50]", q)
		}
		d := lt.Float("l_discount").Get(row)
		if d < 0 || d > 0.10+1e-9 {
			t.Fatalf("discount %g out of [0,0.10]", d)
		}
		tax := lt.Float("l_tax").Get(row)
		if tax < 0 || tax > 0.08+1e-9 {
			t.Fatalf("tax %g out of [0,0.08]", tax)
		}
	}
}

func TestGenReturnFlagRule(t *testing.T) {
	// R/A only for receipts on or before the cutoff; N after.
	s := store(t)
	lt := s.Table("lineitem")
	cutoff := Date("1995-06-17")
	for row := 0; row < lt.Rows(); row += 5 {
		flag := lt.Str("l_returnflag").Get(row)
		recv := lt.Int("l_receiptdate").Get(row)
		if recv > cutoff && flag != "N" {
			t.Fatalf("flag %s for receipt %s after cutoff", flag, DateString(recv))
		}
		if flag != "R" && flag != "A" && flag != "N" {
			t.Fatalf("unknown flag %q", flag)
		}
	}
}

func TestGenLineStatusRule(t *testing.T) {
	s := store(t)
	lt := s.Table("lineitem")
	cutoff := Date("1995-06-17")
	for row := 0; row < lt.Rows(); row += 5 {
		stat := lt.Str("l_linestatus").Get(row)
		ship := lt.Int("l_shipdate").Get(row)
		want := "O"
		if ship <= cutoff {
			want = "F"
		}
		if stat != want {
			t.Fatalf("linestatus %s for ship %s, want %s", stat, DateString(ship), want)
		}
	}
}

func TestGenVocabularies(t *testing.T) {
	s := store(t)
	seg := map[string]bool{}
	ct := s.Table("customer").Str("c_mktsegment").Snapshot()
	for i := 0; i < ct.DictLen(); i++ {
		seg[ct.Extract(uint32(i))] = true
	}
	if len(seg) != 5 {
		t.Fatalf("%d market segments, want 5", len(seg))
	}
	modes := s.Table("lineitem").Str("l_shipmode")
	if modes.DictLen() != 7 {
		t.Fatalf("%d ship modes, want 7", modes.DictLen())
	}
	prio := s.Table("orders").Str("o_orderpriority")
	if prio.DictLen() != 5 {
		t.Fatalf("%d priorities, want 5", prio.DictLen())
	}
}

func TestGenBrandTypeGrammar(t *testing.T) {
	s := store(t)
	pt := s.Table("part")
	brand := pt.Str("p_brand").Snapshot()
	for i := 0; i < brand.DictLen(); i++ {
		b := brand.Extract(uint32(i))
		if !strings.HasPrefix(b, "Brand#") || len(b) != 8 {
			t.Fatalf("malformed brand %q", b)
		}
	}
	typ := pt.Str("p_type").Snapshot()
	for i := 0; i < typ.DictLen(); i++ {
		if parts := strings.Split(typ.Extract(uint32(i)), " "); len(parts) != 3 {
			t.Fatalf("malformed type %q", typ.Extract(uint32(i)))
		}
	}
}

func TestGenPartsuppReferences(t *testing.T) {
	// Every partsupp row references existing parts and suppliers (4 rows
	// per part, as in the spec).
	s := store(t)
	pst, pt, st := s.Table("partsupp"), s.Table("part"), s.Table("supplier")
	if pst.Rows() != 4*pt.Rows() {
		t.Fatalf("partsupp rows %d, want 4x parts (%d)", pst.Rows(), 4*pt.Rows())
	}
	partKeys, suppKeys := pt.Str("p_partkey").Snapshot(), st.Str("s_suppkey").Snapshot()
	for row := 0; row < pst.Rows(); row += 97 {
		if _, found := partKeys.Locate(pst.Str("ps_partkey").Get(row)); !found {
			t.Fatal("dangling ps_partkey")
		}
		if _, found := suppKeys.Locate(pst.Str("ps_suppkey").Get(row)); !found {
			t.Fatal("dangling ps_suppkey")
		}
	}
}

func TestGenCustomerThirdWithoutOrders(t *testing.T) {
	s := store(t)
	ot, ct := s.Table("orders"), s.Table("customer")
	has := make(map[string]bool)
	for row := 0; row < ot.Rows(); row++ {
		has[ot.Str("o_custkey").Get(row)] = true
	}
	without := ct.Rows() - len(has)
	frac := float64(without) / float64(ct.Rows())
	if frac < 0.25 || frac > 0.45 {
		t.Fatalf("%.0f%% of customers without orders, want ~1/3", frac*100)
	}
}
