package model

import (
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
)

// TestRegistryCompleteness is the completeness gate run by scripts/check.sh:
// every dictionary format must be fully wired into the prediction framework
// — positive default costs and a nonzero size estimate — or the compression
// manager would silently mis-rank it. (The dict package's own invariants and
// fuzz suites enforce the codec side by iterating AllFormats the same way.)
func TestRegistryCompleteness(t *testing.T) {
	table := DefaultCostTable()
	for _, f := range dict.AllFormats() {
		c := table.Of(f)
		if c.ExtractNs <= 0 || c.LocateNs <= 0 || c.ConstructNs <= 0 {
			t.Errorf("format %v has non-positive default costs %+v", f, c)
		}
	}

	// EstimateEach must price every format on a real sample.
	strs := datagen.Generate("engl", 2000, 11)
	s := TakeSample(strs, 1.0, 1)
	sizes := EstimateEach(s)
	if len(sizes) != dict.NumFormats() {
		t.Fatalf("EstimateEach returned %d entries, want %d", len(sizes), dict.NumFormats())
	}
	for _, f := range dict.AllFormats() {
		if sizes[f] == 0 {
			t.Errorf("EstimateEach priced format %v at zero", f)
		}
	}
}
