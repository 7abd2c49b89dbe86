package model

import (
	"math"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/stats"
)

// TestRuntimeModelComparison runs the Section 4.1 comparison between the
// constant runtime model and its log-depth refinement. On this engine the
// refinement predicts locate better (our locate is a pure binary search, so
// its cost really does scale with log n, unlike the paper's C++ system where
// other effects dominate); EXPERIMENTS.md documents that difference. The
// test asserts that both models stay within sane error bounds and that the
// measurements themselves are usable — the choice between the models is a
// documented trade-off, not a correctness property.
func TestRuntimeModelComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("runtime microbenchmarks")
	}
	gen := func(n int) []string { return datagen.Generate("engl", n, 11) }
	formats := []dict.Format{dict.Array, dict.ArrayBC, dict.FCBlock}
	// Each median error is the smallest of five comparison runs: load from
	// other processes inflates one run's errors (4.03 was seen once under a
	// parallel go test ./...), not all five. On a 2-core x86 box the medians
	// are ~0.2 (constant) and ~0.1 (log-depth) against the 1.0 bound.
	cm, sm := math.Inf(1), math.Inf(1)
	for run := 0; run < 5; run++ {
		errs := CompareRuntimeModels(gen, 8000, []int{1000, 32000}, formats)
		if len(errs) != 2*len(formats)*2 {
			t.Fatalf("%d observations", len(errs))
		}
		var constErrs, scaledErrs []float64
		for _, e := range errs {
			if e.Op != "locate" {
				continue
			}
			constErrs = append(constErrs, e.ConstErr)
			scaledErrs = append(scaledErrs, e.ScaledErr)
			if e.MeasuredNs <= 0 {
				t.Fatalf("non-positive measurement: %+v", e)
			}
		}
		cm, sm = min(cm, stats.Median(constErrs)), min(sm, stats.Median(scaledErrs))
	}
	t.Logf("median locate prediction error: constant %.2f, log-depth %.2f", cm, sm)
	// Across a 32x size range, binary-search depth changes by ~1.5x, so a
	// sane constant model stays within that band and the refinement cannot
	// be wildly off either.
	if cm > 1.0 {
		t.Errorf("constant model median error %.2f implausibly large", cm)
	}
	if sm > 1.0 {
		t.Errorf("log-depth model median error %.2f implausibly large", sm)
	}
}
