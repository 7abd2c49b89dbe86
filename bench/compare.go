package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// manifest is the part of BENCHMARK.json the comparison needs.
type manifest struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile by the
// method Python's statistics.quantiles(values, n=4) uses (exclusive).
func quartiles(vals []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

type verdict string

const (
	verdictOK         verdict = "ok"
	verdictRegressed  verdict = "regressed"
	verdictUnresolved verdict = "unresolved"
)

// judge compares one metric's runs on two sides under its bound. B is
// regressed when its median is worse than A's by more than the bound;
// unresolved when either side's own quartile spread is wider than the bound,
// so the medians cannot settle it.
func judge(a, b []float64, better string, bound float64) (verdict, float64) {
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	if ma == 0 {
		return verdictUnresolved, 0
	}
	worse := (mb - ma) / ma
	if better == "higher" {
		worse = -worse
	}
	if (q3a-q1a)/ma > bound || (mb != 0 && (q3b-q1b)/mb > bound) {
		return verdictUnresolved, worse
	}
	if worse > bound {
		return verdictRegressed, worse
	}
	return verdictOK, worse
}

// compareMain implements `bench compare A.json B.json`: one row per
// (workload, metric), exit status 1 when anything regressed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json   (run from the repository root, where BENCHMARK.json is)")
		return 2
	}
	var mf manifest
	var sides [2]resultFile
	for i, path := range append([]string{"BENCHMARK.json"}, args...) {
		data, err := os.ReadFile(path)
		if err == nil {
			if i == 0 {
				err = json.Unmarshal(data, &mf)
			} else {
				err = json.Unmarshal(data, &sides[i-1])
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tverdict")
	regressed := 0
	for _, wd := range workloadDefs {
		for _, m := range mf.EndToEnd {
			a, b := sides[0].values(wd.Name, m.Name), sides[1].values(wd.Name, m.Name)
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t%.0f%%\tmissing\n", wd.Name, m.Name, 100*m.Bound)
				continue
			}
			v, worse := judge(a, b, m.Better, m.Bound)
			if v == verdictRegressed {
				regressed++
			}
			_, ma, _ := quartiles(a)
			_, mb, _ := quartiles(b)
			fmt.Fprintf(tw, "%s\t%s\t%.4f %s\t%.4f %s\t%+.1f%%\t%.0f%%\t%s\n", wd.Name, m.Name, ma, m.Unit, mb, m.Unit, 100*worse, 100*m.Bound, v)
		}
	}
	tw.Flush()
	for i, s := range sides {
		if fails := s.failedOps(); fails > 0 {
			fmt.Printf("side %c: %d failed operations\n", 'A'+i, fails)
			regressed++
		}
	}
	if regressed > 0 {
		return 1
	}
	return 0
}

func (rf *resultFile) failedOps() int {
	n := 0
	for _, r := range rf.Runs {
		n += r.Failed
	}
	return n
}
