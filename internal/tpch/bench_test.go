package tpch

import (
	"testing"

	"strdict/internal/dict"
)

// BenchmarkRunAll times one pass over all 22 queries against a merged
// store — the number the colstore operators the plans are written on
// (TableView.Codes and Join) are meant to move.
func BenchmarkRunAll(b *testing.B) {
	s := Load(Config{ScaleFactor: 0.02, Seed: 7, InitialFormat: dict.FCInline})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunAll(s)
	}
}
