package experiments

// Shape regression tests: the paper's qualitative claims, asserted against
// the regenerated experiments. These are the reproduction's contract — if a
// code change breaks one of these, the repository no longer reproduces the
// paper.

import (
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/model"
	"strdict/internal/sysstat"
)

// surveyOn is Survey keyed by format. Its timings are model.Measure's: the
// minimum of a few rounds, since load from other processes only ever adds
// time (one sample flaked about one run in ten under a parallel go test
// ./...).
func surveyOn(t *testing.T, corpus string, n int) map[dict.Format]SurveyRow {
	t.Helper()
	strs := datagen.Generate(corpus, n, 1)
	out := make(map[dict.Format]SurveyRow, dict.NumFormats())
	for _, r := range Survey(strs, 1) {
		out[r.Format] = r
	}
	return out
}

// ratesOn is every format's compression rate on a corpus, untimed, as
// Figure 4 computes it.
func ratesOn(corpus string, n int) map[dict.Format]float64 {
	strs := datagen.Generate(corpus, n, 1)
	out := make(map[dict.Format]float64, dict.NumFormats())
	for _, f := range dict.AllFormats() {
		out[f] = dict.CompressionRate(dict.BuildUnchecked(f, strs), strs)
	}
	return out
}

// Figure 3's qualitative structure on src.
func TestShapeFigure3Src(t *testing.T) {
	rows := surveyOn(t, "src", 8000)

	// "Front-Coding variants are smaller ... than their array equivalents
	// with the same string compression scheme."
	pairs := [][2]dict.Format{
		{dict.FCBlock, dict.Array},
		{dict.FCBlockBC, dict.ArrayBC},
		{dict.FCBlockHU, dict.ArrayHU},
		{dict.FCBlockRP12, dict.ArrayRP12},
		{dict.FCBlockRP16, dict.ArrayRP16},
	}
	for _, p := range pairs {
		if rows[p[0]].CompressionRate <= rows[p[1]].CompressionRate {
			t.Errorf("%s (%.2f) not smaller than %s (%.2f)",
				p[0], rows[p[0]].CompressionRate, p[1], rows[p[1]].CompressionRate)
		}
	}

	// "rp 12, rp 16: maximal compression" — the two smallest fc variants.
	for _, f := range []dict.Format{dict.FCBlock, dict.FCBlockBC, dict.FCBlockNG2, dict.FCBlockNG3} {
		if rows[f].CompressionRate >= rows[dict.FCBlockRP12].CompressionRate {
			t.Errorf("%s (%.2f) compresses better than fc block rp 12 (%.2f) on src",
				f, rows[f].CompressionRate, rows[dict.FCBlockRP12].CompressionRate)
		}
	}

	// "array fixed ... factors larger than the data itself" on src
	// (variable-length lines make fixed slots wasteful).
	if rows[dict.ArrayFixed].CompressionRate >= 1 {
		t.Errorf("array fixed compression %.2f on src, expected < 1",
			rows[dict.ArrayFixed].CompressionRate)
	}

	// Uncompressed array is faster than every compressing scheme on arrays.
	for _, f := range []dict.Format{dict.ArrayBC, dict.ArrayHU, dict.ArrayRP12, dict.ArrayRP16} {
		if rows[dict.Array].ExtractNs >= rows[f].ExtractNs {
			t.Errorf("array extract (%.0fns) not faster than %s (%.0fns)",
				rows[dict.Array].ExtractNs, f, rows[f].ExtractNs)
		}
	}

	// "fc block df is just a bit faster but larger than fc block." With
	// min-of-rounds timings df extracts in ~0.4x fc block's time on src (77
	// vs 189 ns on a 2-core x86 box); the ~1-in-10 flake was one-sample noise.
	if rows[dict.FCBlockDF].ExtractNs >= rows[dict.FCBlock].ExtractNs {
		t.Errorf("fc block df extract (%.0fns) not faster than fc block (%.0fns)",
			rows[dict.FCBlockDF].ExtractNs, rows[dict.FCBlock].ExtractNs)
	}
	if rows[dict.FCBlockDF].Bytes <= rows[dict.FCBlock].Bytes {
		t.Errorf("fc block df (%d) not larger than fc block (%d)",
			rows[dict.FCBlockDF].Bytes, rows[dict.FCBlock].Bytes)
	}
}

// Figure 4: column bc wins the constant-length structured sets, rp 12 the
// redundant text sets, and both lose to raw storage on random data.
func TestShapeFigure4(t *testing.T) {
	best := func(rates map[dict.Format]float64) float64 {
		b := 0.0
		for _, r := range rates {
			b = max(b, r)
		}
		return b
	}
	for _, corpus := range []string{"asc", "mat"} {
		rates := ratesOn(corpus, 6000)
		if b := best(rates); rates[dict.ColumnBC] < b*0.999 {
			t.Errorf("%s: column bc (%.2f) is not the best (%.2f)", corpus, rates[dict.ColumnBC], b)
		}
	}
	for _, corpus := range []string{"src", "url"} {
		rates := ratesOn(corpus, 6000)
		if b := best(rates); rates[dict.FCBlockRP12] < b*0.999 {
			t.Errorf("%s: fc block rp 12 (%.2f) is not the best (%.2f)", corpus, rates[dict.FCBlockRP12], b)
		}
	}
	rates := ratesOn("rand1", 6000)
	if rates[dict.FCBlockRP12] >= 1 || rates[dict.ColumnBC] >= 1 {
		t.Errorf("rand1: compressors should fall below 1.0 (rp12 %.2f, column bc %.2f)",
			rates[dict.FCBlockRP12], rates[dict.ColumnBC])
	}
	// column bc is much worse than raw on variable-length random data.
	rates = ratesOn("rand2", 6000)
	if rates[dict.ColumnBC] >= rates[dict.Array] {
		t.Errorf("rand2: column bc (%.2f) should lose to array (%.2f)",
			rates[dict.ColumnBC], rates[dict.Array])
	}
}

// Figure 5: array and array fixed are the fastest extractors everywhere,
// with array fixed clearly ahead on constant-length sets.
func TestShapeFigure5(t *testing.T) {
	for _, corpus := range []string{"asc", "hash", "mat", "engl", "url"} {
		// Min-of-rounds timings: the fastest other format takes >= 2.2x the
		// faster array's time on these corpora (2-core x86 box), against
		// the 0.9x this asserts.
		rows := surveyOn(t, corpus, 6000)
		fastest := rows[dict.Array].ExtractNs
		if rows[dict.ArrayFixed].ExtractNs < fastest {
			fastest = rows[dict.ArrayFixed].ExtractNs
		}
		for f, r := range rows {
			if r.ExtractNs < fastest*0.9 {
				t.Errorf("%s: %s (%.0fns) beat both array variants (%.0fns)",
					corpus, f, r.ExtractNs, fastest)
			}
		}
	}
}

// Figures 1-2: the Zipf catalog makes a sliver of columns hold the bulk of
// dictionary memory in all three systems.
func TestShapeFigures1And2(t *testing.T) {
	for _, name := range sysstat.Names() {
		s := sysstat.Generate(name, 1)
		memShare, colShare := s.LargeDictMemoryShare(100_000)
		if memShare < 0.5 {
			t.Errorf("%s: only %.0f%% of memory in large dictionaries", name, memShare*100)
		}
		if colShare > 0.02 {
			t.Errorf("%s: large dictionaries are %.2f%% of columns, expected rare", name, colShare*100)
		}
	}
}

// Section 3.2: hashing's locate is fast but its size loses to the plain
// array — the reason the paper excludes it.
func TestShapeHashBaseline(t *testing.T) {
	strs := datagen.Generate("engl", 8000, 1)
	h, err := dict.BuildHash(strs)
	if err != nil {
		t.Fatal(err)
	}
	a := dict.BuildUnchecked(dict.Array, strs)
	if h.Bytes() <= a.Bytes() {
		t.Errorf("hash (%d bytes) should exceed array (%d bytes)", h.Bytes(), a.Bytes())
	}
}

// Extended survey ([33]): construction time ordering — rp trains a grammar
// and must construct at least an order of magnitude slower per string than
// the raw array; front coding construction stays cheap.
func TestShapeConstructionCosts(t *testing.T) {
	strs := datagen.Generate("src", 8000, 1)
	// Construction times are model.Measure's minimum over its rounds: rp 12
	// builds ~39x and fc block ~1.4x slower than array per string (2-core
	// x86 box), against the 5x and 10x asserted.
	rows := make(map[dict.Format]model.Costs)
	for _, f := range []dict.Format{dict.Array, dict.ArrayRP12, dict.FCBlock} {
		_, rows[f] = model.Measure(f, strs, 1)
	}
	if rows[dict.ArrayRP12].ConstructNs < 5*rows[dict.Array].ConstructNs {
		t.Errorf("rp 12 construction (%.0fns) suspiciously close to array (%.0fns)",
			rows[dict.ArrayRP12].ConstructNs, rows[dict.Array].ConstructNs)
	}
	if rows[dict.FCBlock].ConstructNs > 10*rows[dict.Array].ConstructNs {
		t.Errorf("fc block construction (%.0fns) too expensive vs array (%.0fns)",
			rows[dict.FCBlock].ConstructNs, rows[dict.Array].ConstructNs)
	}
}
