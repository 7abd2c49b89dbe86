package core

import (
	"fmt"
	"sync"
	"testing"

	"strdict/internal/model"
)

func parallelTestStats(cols int) []ColumnStats {
	out := make([]ColumnStats, cols)
	for k := range out {
		strs := make([]string, 1500)
		for i := range strs {
			strs[i] = fmt.Sprintf("col%d/value-%06d-%04x", k, i, uint32(i*(k+3))%1500)
		}
		out[k] = ColumnStats{
			Name:              fmt.Sprintf("c%d", k),
			NumStrings:        uint64(len(strs)),
			Extracts:          uint64(1000 * (k + 1)),
			Locates:           uint64(100 * (cols - k)),
			LifetimeNs:        60e9,
			ColumnVectorBytes: 4096,
			Sample:            model.TakeSample(strs, 1.0, 1),
		}
	}
	return out
}

// TestManagerConcurrentFeedbackAndSelection exercises the shared-state
// contract: merge workers select formats while the feedback loop adjusts c.
// Run under -race this pins the Manager's goroutine safety.
func TestManagerConcurrentFeedbackAndSelection(t *testing.T) {
	stats := parallelTestStats(2)
	mgr := NewManager(Options{DesiredFreeBytes: 1 << 30})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			mgr.ObserveFreeMemory(uint64(i%3) << 29)
		}
	}()
	for w := 0; w < 2; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				d := mgr.ChooseFormat(stats[w])
				if d.C <= 0 {
					t.Errorf("non-positive c %g", d.C)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
