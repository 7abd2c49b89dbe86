// Package experiments regenerates every figure of the paper's evaluation.
// Each Figure function prints the same rows/series the paper plots, so the
// shape of the published result (who wins, by what factor, where crossovers
// fall) can be compared directly. cmd/figures and the root benchmark reach
// them through one table, Figures. EXPERIMENTS.md records paper-vs-measured
// values.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"strdict/internal/core"
	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/model"
	"strdict/internal/stats"
	"strdict/internal/sysstat"
)

// SurveyRow is one dictionary variant's measured position on a data set.
type SurveyRow struct {
	Format          dict.Format
	CompressionRate float64
	Bytes           uint64
	model.Costs
}

// Survey builds every format on the corpus and measures its compression rate
// (Definition 2), size and runtime costs (model.Measure).
func Survey(strs []string, seed int64) []SurveyRow {
	rows := make([]SurveyRow, 0, dict.NumFormats())
	for _, f := range dict.AllFormats() {
		d, costs := model.Measure(f, strs, seed)
		rows = append(rows, SurveyRow{f, dict.CompressionRate(d, strs), d.Bytes(), costs})
	}
	return rows
}

// Figures1And2 prints the dictionary-size and memory-consumption
// distributions of the three synthetic system catalogs.
func Figures1And2(w io.Writer, p Params) {
	fmt.Fprintln(w, "Figure 1+2: distribution of dictionary sizes and memory consumption")
	fmt.Fprintln(w, "(share of columns / share of dictionary memory per size decade)")
	for _, name := range sysstat.Names() {
		s := sysstat.Generate(name, p.Seed)
		cols, mem := s.DecadeShares()
		fmt.Fprintf(w, "\n%s (%d string columns, %.0f%% of all columns are strings)\n",
			name, len(s.Columns), s.StringShare*100)
		fmt.Fprintf(w, "  %-22s %-16s %s\n", "distinct values", "share of columns", "share of memory")
		for d := range cols {
			fmt.Fprintf(w, "  10^%d..10^%d %11s %15s %15s\n", d, d+1, "",
				fmt.Sprintf("%.3f%%", cols[d]*100), fmt.Sprintf("%.1f%%", mem[d]*100))
		}
		memShare, colShare := s.LargeDictMemoryShare(100_000)
		fmt.Fprintf(w, "  dictionaries > 1e5 entries: %.2f%% of columns hold %.0f%% of memory\n",
			colShare*100, memShare*100)
	}
}

// srcSurvey prints one measured column of the src survey beside every
// variant's compression rate: Figure 3 and the extended surveys.
func srcSurvey(w io.Writer, p Params, title, column string, value func(SurveyRow) float64) {
	strs := datagen.Generate("src", p.N, p.Seed)
	fmt.Fprintf(w, "%s (%d strings)\n", title, len(strs))
	fmt.Fprintf(w, "%-16s %18s %18s\n", "variant", "compression rate", column)
	for _, r := range Survey(strs, p.Seed) {
		fmt.Fprintf(w, "%-16s %18.2f %18.3f\n", r.Format, r.CompressionRate, value(r))
	}
}

// Figure3 prints the compression-rate / extract-runtime trade-off of every
// variant on the src data set.
func Figure3(w io.Writer, p Params) {
	srcSurvey(w, p, "Figure 3: trade-off on the src data set", "extract (us)",
		func(r SurveyRow) float64 { return r.ExtractNs / 1000 })
}

// Figure4 prints, per data set, the best compression rate of any variant
// and the rates of the two reference variants fc block rp 12 and column bc.
// It builds every variant but times nothing.
func Figure4(w io.Writer, p Params) {
	fmt.Fprintf(w, "Figure 4: compression rate of the smallest dictionary implementations\n")
	fmt.Fprintf(w, "%-8s %8s %-16s %14s %10s\n", "data set", "best", "(variant)", "fc block rp 12", "column bc")
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, p.N, p.Seed)
		best, bestF := 0.0, dict.Array
		var rp12, colbc float64
		for _, f := range dict.AllFormats() {
			rate := dict.CompressionRate(dict.BuildUnchecked(f, strs), strs)
			if rate > best {
				best, bestF = rate, f
			}
			switch f {
			case dict.FCBlockRP12:
				rp12 = rate
			case dict.ColumnBC:
				colbc = rate
			}
		}
		fmt.Fprintf(w, "%-8s %8.2f %-16s %14.2f %10.2f\n", name, best, bestF.String(), rp12, colbc)
	}
}

// Figure5 prints, per data set, the fastest extract runtime of any variant
// and the runtimes of array and array fixed.
func Figure5(w io.Writer, p Params) {
	fmt.Fprintf(w, "Figure 5: extract runtime of the fastest dictionary implementations (us/op)\n")
	fmt.Fprintf(w, "%-8s %8s %-16s %8s %12s\n", "data set", "best", "(variant)", "array", "array fixed")
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, p.N, p.Seed)
		best, bestF := 0.0, dict.Array
		var arr, arrFixed float64
		for _, r := range Survey(strs, p.Seed) {
			if best == 0 || r.ExtractNs < best {
				best, bestF = r.ExtractNs, r.Format
			}
			switch r.Format {
			case dict.Array:
				arr = r.ExtractNs
			case dict.ArrayFixed:
				arrFixed = r.ExtractNs
			}
		}
		fmt.Fprintf(w, "%-8s %8.3f %-16s %8.3f %12.3f\n",
			name, best/1000, bestF.String(), arr/1000, arrFixed/1000)
	}
}

// PredictionErrors computes the relative size-prediction error of every
// (variant, data set) pair for one sampling configuration.
// ratio < 0 selects the paper's production setting max(1%, 5000 strings).
func PredictionErrors(n int, ratio float64, seed int64) []float64 {
	if ratio < 0 {
		ratio = 0.01 // TakeSample applies the 5000-string floor itself
	}
	return predictionErrors(n, seed, func(strs []string) *model.Sample {
		return model.TakeSample(strs, ratio, seed)
	})
}

// predictionErrors estimates every variant's size on every data set from the
// sample that sample draws, against the built size.
func predictionErrors(n int, seed int64, sample func(strs []string) *model.Sample) []float64 {
	var errs []float64
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, n, seed)
		s := sample(strs)
		for _, f := range dict.AllFormats() {
			real := float64(dict.BuildUnchecked(f, strs).Bytes())
			errs = append(errs, math.Abs(float64(model.EstimateSize(f, s))-real)/real)
		}
	}
	return errs
}

// Figure6 prints box-plot statistics of the prediction error for the
// paper's four sampling configurations.
func Figure6(w io.Writer, p Params) {
	fmt.Fprintf(w, "Figure 6: prediction error of the compression models (%d strings/corpus)\n", p.N)
	fmt.Fprintf(w, "%-16s %8s %8s %8s %8s %8s %9s\n",
		"sampling ratio", "loWhisk", "q1", "median", "q3", "hiWhisk", "outliers")
	configs := []struct {
		label string
		ratio float64
	}{
		{"100%", 1.0},
		{"10%", 0.10},
		{"1%", 0.01},
		{"max(1%, 5000)", -1},
	}
	for _, cfg := range configs {
		// The fixed-ratio rows bypass the 5000-string sampling floor (the
		// bare 1% row reproduces the paper's extreme outliers on small
		// dictionaries); only the production setting applies it.
		var errs []float64
		if cfg.ratio > 0 && cfg.ratio < 1 {
			errs = predictionErrorsNoFloor(p.N, cfg.ratio, p.Seed)
		} else {
			errs = PredictionErrors(p.N, cfg.ratio, p.Seed)
		}
		bp := stats.Summarize(errs)
		fmt.Fprintf(w, "%-16s %8.4f %8.4f %8.4f %8.4f %8.4f %9d\n",
			cfg.label, bp.LowWhisker, bp.Q1, bp.Median, bp.Q3, bp.HighWhisker, len(bp.Outliers))
	}
}

// predictionErrorsNoFloor forces an exact ratio sample (no 5000 floor) by
// subsampling indices directly, to reproduce the paper's observation that a
// bare 1% sample goes wrong on small dictionaries.
func predictionErrorsNoFloor(n int, ratio float64, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	return predictionErrors(n, seed, func(strs []string) *model.Sample {
		k := max(int(ratio*float64(len(strs))), 2)
		sub := make([]string, 0, k)
		for i := 0; i < len(strs) && len(sub) < k; i++ {
			if rng.Intn(len(strs)-i) < k-len(sub) {
				sub = append(sub, strs[i])
			}
		}
		// A Sample whose exact totals are the real ones but whose sampled
		// strings/blocks come from the small subset.
		s := model.TakeSample(sub, 1.0, seed)
		s.N = len(strs)
		s.RawChars = dict.RawBytes(strs)
		return s
	})
}

// Figure9 prints a possible dictionary performance distribution on the src
// data set with chosen access frequencies, plus the variant each strategy
// selects at p.C — the illustration of Section 5.4.
func Figure9(w io.Writer, p Params) {
	strs := datagen.Generate("src", p.N, p.Seed)
	st := core.ColumnStats{
		Name:              "src",
		NumStrings:        uint64(len(strs)),
		Extracts:          2_000_000,
		Locates:           20_000,
		LifetimeNs:        float64(60 * time.Second),
		ColumnVectorBytes: 0,
		Sample:            model.TakeSample(strs, 1.0, p.Seed),
	}
	cands := core.Candidates(st, model.DefaultCostTable())
	fmt.Fprintf(w, "Figure 9: dictionary performance distribution (src, c=%g)\n", p.C)
	fmt.Fprintf(w, "%-16s %12s %14s\n", "variant", "size (KiB)", "rel_time")
	for _, cand := range cands {
		fmt.Fprintf(w, "%-16s %12.1f %14.6f\n",
			cand.Format, float64(cand.SizeBytes)/1024, cand.RelTime)
	}
	for _, strat := range []core.Strategy{core.StrategyConst, core.StrategyRel, core.StrategyTilt} {
		sel := core.Select(strat, p.C, cands)
		fmt.Fprintf(w, "selected by %-5s: %s\n", strat, sel.Format)
	}
}
