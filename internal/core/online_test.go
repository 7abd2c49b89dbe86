package core

import (
	"fmt"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/dict"
	"strdict/internal/model"
)

// TestOnlineManagerSimulation plays the paper's intended online deployment:
// a store under a memory budget, periodic merges, and the feedback loop
// steering c. Memory pressure must drive the system into smaller formats;
// released pressure must let it swing back to fast formats. This covers the
// "on-line decisions" the paper argues the offline prototype generalizes to.
func TestOnlineManagerSimulation(t *testing.T) {
	const budget = 1 << 20 // 1 MiB free-memory target
	mgr := NewManager(Options{DesiredFreeBytes: budget, InitialC: 1})
	costs := model.DefaultCostTable()

	// Three columns with distinct personalities.
	mkCol := func(name string, distinct int, gen func(i int) string) *colstore.StringColumn {
		c := colstore.NewStringColumn(name, dict.FCInline)
		for i := 0; i < 4*distinct; i++ {
			c.Append(gen(i % distinct))
		}
		c.Merge(dict.FCInline)
		return c
	}
	cols := []*colstore.StringColumn{
		mkCol("hot.codes", 50, func(i int) string { return fmt.Sprintf("C%02d", i) }),
		mkCol("warm.urls", 3000, func(i int) string {
			return fmt.Sprintf("https://shop.example/item/%06d", i)
		}),
		mkCol("cold.text", 3000, func(i int) string {
			return fmt.Sprintf("remark remark remark number %06d follows", i)
		}),
	}

	workload := func() {
		for i := 0; i < 20000; i++ {
			cols[0].Get(i % cols[0].Len())
		}
		for i := 0; i < 500; i++ {
			cols[1].Get((i * 31) % cols[1].Len())
		}
		for i := 0; i < 20; i++ {
			cols[2].Get((i * 131) % cols[2].Len())
		}
	}

	mergeEpoch := func() {
		// Simulated system memory: budget + slack - current dictionaries.
		var dictBytes uint64
		for _, c := range cols {
			dictBytes += c.DictBytes()
		}
		var free uint64
		slack := uint64(300 << 10)
		if dictBytes < budget+slack {
			free = budget + slack - dictBytes
		}
		mgr.ObserveFreeMemory(free)
		for _, c := range cols {
			st := c.Stats()
			snap := c.Snapshot()
			values := snap.DictValues()
			snap.Release()
			dec := mgr.ChooseFormat(ColumnStats{
				Name:              c.Name(),
				NumStrings:        uint64(c.DictLen()),
				Extracts:          st.Extracts,
				Locates:           st.Locates,
				LifetimeNs:        1e9,
				ColumnVectorBytes: c.VectorBytes(),
				Sample:            model.TakeSample(values, 1.0, 1),
			})
			c.Rebuild(dec.Format)
			c.ResetStats()
		}
	}

	var epochsDictBytes []uint64
	for epoch := 0; epoch < 8; epoch++ {
		workload()
		mergeEpoch()
		var dictBytes uint64
		for _, c := range cols {
			dictBytes += c.DictBytes()
		}
		epochsDictBytes = append(epochsDictBytes, dictBytes)
	}

	// The loop must converge: dictionaries end up within the budget regime
	// and the hot column keeps a fast format.
	final := epochsDictBytes[len(epochsDictBytes)-1]
	if final > budget {
		t.Errorf("dictionaries (%d bytes) never squeezed under the 1 MiB regime: %v",
			final, epochsDictBytes)
	}
	hotCosts := model.DefaultCostTable().Of(cols[0].Format()).ExtractNs
	coldCosts := costs.Of(cols[2].Format()).ExtractNs
	if hotCosts > coldCosts {
		t.Errorf("hot column got a slower format (%s) than the cold one (%s)",
			cols[0].Format(), cols[2].Format())
	}
	// Data remains correct throughout.
	if got := cols[1].Get(7); got == "" {
		t.Error("column data lost")
	}
}
