package tpch

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

// TestResultsGolden pins the 22 results on a fully merged store (sf 0.002,
// seed 2) to one digest per query, recorded before the plans moved onto the
// colstore join and codes operators: columns, rows and row order are all
// part of the digest.
func TestResultsGolden(t *testing.T) {
	s := Load(Config{ScaleFactor: 0.002, Seed: 2, InitialFormat: dict.FCInline})
	var got []string
	for _, res := range RunAll(s) {
		h := sha256.New()
		fmt.Fprintf(h, "%q\n", res.Columns)
		for _, r := range res.Rows {
			fmt.Fprintf(h, "%q\n", r)
		}
		got = append(got, fmt.Sprintf("q%02d %x", res.Query, h.Sum(nil)))
	}
	golden, err := os.ReadFile("testdata/results_sf0.002_seed2.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, %d queries ran", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("got %s, golden %s", got[i], want[i])
		}
	}
}

// appendCopy copies src into a fresh store by Append only, so every row sits
// in the delta — the state of a store recovered from the WAL before its
// first checkpoint. With partly set, every second string column is merged
// halfway through, leaving columns of one table with main parts of
// different lengths (some empty) under a shared unmerged tail.
func appendCopy(src *colstore.Store, partly bool) *colstore.Store {
	dst := colstore.NewStore()
	for _, name := range src.TableNames() {
		st, dt := src.Table(name), dst.AddTable(name)
		for _, col := range st.ColumnNames() {
			if _, ok := st.LookupString(col); ok {
				dt.AddString(col, dict.FCInline)
			} else if _, ok := st.LookupInt64(col); ok {
				dt.AddInt64(col)
			} else {
				dt.AddFloat64(col)
			}
		}
		rows := st.Rows()
		for row := 0; row < rows; row++ {
			if partly && row == rows/2 {
				for i, c := range dt.StringColumns() {
					if i%2 == 0 {
						c.Merge(dict.FCInline)
					}
				}
			}
			for _, col := range st.ColumnNames() {
				if c, ok := st.LookupString(col); ok {
					dt.Str(col).Append(c.Get(row))
				} else if c, ok := st.LookupInt64(col); ok {
					dt.Int(col).Append(c.Get(row))
				} else {
					dt.Float(col).Append(st.Float(col).Get(row))
				}
			}
		}
	}
	return dst
}

// TestPlansOnUnmergedStore runs all 22 plans on a store whose main parts are
// empty and on one that is partly merged: a row past MainRows has no value
// ID, so the plans must not read one for it (they used to read ID 0 and
// index empty translation tables and dictionaries with it).
func TestPlansOnUnmergedStore(t *testing.T) {
	src := Load(Config{ScaleFactor: 0.002, Seed: 2, InitialFormat: dict.FCInline})
	for _, partly := range []bool{false, true} {
		s := appendCopy(src, partly)
		for _, q := range Queries() {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("partly merged %v: q%d panicked: %v", partly, q.Number, r)
					}
				}()
				if res := q.Run(s); res.Query != q.Number {
					t.Errorf("partly merged %v: q%d returned result of q%d", partly, q.Number, res.Query)
				}
			}()
		}
		if live := s.LiveViews(); live != 0 {
			t.Errorf("partly merged %v: %d views still live", partly, live)
		}
	}
}
