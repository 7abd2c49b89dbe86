package model

import (
	"bytes"
	"fmt"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/golden"
)

// TestEstimatesGolden pins every predicted size, and with it every selection
// decision, byte for byte: every registered format on the nine corpora at
// 20 000 strings, three sample ratios and two sample seeds. (0.01 and 0.1
// both land on the MinSampleStrings floor at this size, so their rows agree;
// 1.0 takes the whole column for either seed.) The table was generated
// before the models moved to shared probes and flat trainers, so a changed
// tie-break in a trainer shows here as a diff instead of as a small drift in
// chosen formats. `go test ./internal/model -run TestEstimatesGolden -update`
// regenerates it.
func TestEstimatesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("prices every format on 54 samples")
	}
	var buf bytes.Buffer
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, 20000, 1)
		for _, ratio := range []float64{0.01, 0.1, 1.0} {
			for _, seed := range []int64{1, 2} {
				sizes := EstimateEach(TakeSample(strs, ratio, seed))
				for _, f := range dict.AllFormats() {
					fmt.Fprintf(&buf, "%s\t%g\t%d\t%s\t%d\n", name, ratio, seed, f, sizes[f])
				}
			}
		}
	}
	golden.Check(t, "testdata/estimates.golden", buf.Bytes())
}
