package model

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/repair"
)

func parallelTestStrings() []string {
	strs := make([]string, 2000)
	for i := range strs {
		strs[i] = fmt.Sprintf("part-%06d/sku-%05x", i, uint32(i*7)%2000)
	}
	return strs
}

// TestEstimateSizeConcurrentOnOneSample has several goroutines price every
// format on one shared Sample at once, each starting at a different format
// so they collide on different probes: under -race this proves the probe
// memoisation is race-free, and every goroutine must see the serial sizes.
func TestEstimateSizeConcurrentOnOneSample(t *testing.T) {
	strs := parallelTestStrings()
	want := EstimateEach(TakeSample(strs, 1.0, 1))
	shared := TakeSample(strs, 1.0, 1)
	formats := dict.AllFormats()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range formats {
				f := formats[(i+g*3)%len(formats)]
				if got := EstimateSize(f, shared); got != want[f] {
					t.Errorf("goroutine %d: %s: got %d, want %d", g, f, got, want[f])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRepairTrainsOncePerPartSet counts Re-Pair training runs behind one
// format choice: the four rp formats read two probes — one run over the
// array parts, one over the front-coded parts — however the sizes are asked
// for, and asking again trains nothing.
func TestRepairTrainsOncePerPartSet(t *testing.T) {
	var runs atomic.Int32
	orig := trainRepair
	trainRepair = func(parts [][]byte) (repair.Cut, repair.Cut) {
		runs.Add(1)
		return orig(parts)
	}
	defer func() { trainRepair = orig }()

	strs := datagen.Generate("url", 8000, 1)
	for name, price := range map[string]func(*Sample){
		"EstimateEach": func(s *Sample) { EstimateEach(s) },
		"EstimateSize loop": func(s *Sample) {
			for _, f := range dict.AllFormats() {
				EstimateSize(f, s)
			}
		},
	} {
		runs.Store(0)
		s := TakeSample(strs, 0.01, 1)
		price(s)
		price(s)
		if got := runs.Load(); got != 2 {
			t.Errorf("%s: %d Re-Pair training runs, want 2", name, got)
		}
	}
}
