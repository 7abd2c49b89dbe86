package core

import (
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/model"
)

// BenchmarkCandidates is the cost guard on format selection: one production
// sample (ratio 0.01, i.e. the MinSampleStrings floor) of a 20 000-string
// column priced for every registered format, per corpus. Sampling is outside
// the loop; a fresh Sample per iteration keeps the probe cache cold.
func BenchmarkCandidates(b *testing.B) {
	costs := model.DefaultCostTable()
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, 20000, 1)
		stats := ColumnStats{
			Name: name, NumStrings: uint64(len(strs)),
			Extracts: 1_000_000, Locates: 100_000, LifetimeNs: 60e9,
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				stats.Sample = model.TakeSample(strs, 0.01, 1)
				b.StartTimer()
				if len(Candidates(stats, costs)) == 0 {
					b.Fatal("no candidates")
				}
			}
		})
	}
}
