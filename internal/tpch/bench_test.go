package tpch

import (
	"testing"

	"strdict/internal/core"
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

// BenchmarkLoad times Load at sf 0.02: generation plus every string
// column's first merge into fc inline.
func BenchmarkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Load(Config{ScaleFactor: 0.02, Seed: 7, InitialFormat: dict.FCInline})
	}
}

// BenchmarkReconfigure times Reconfigure at sf 0.02 from fc inline after
// one traced pass, with the end-to-end benchmark's settings (c = 1, tilt,
// a 1 % sample, a 1 s lifetime): every column's selection and rebuild.
// Each iteration first puts every column back into fc inline, untimed.
func BenchmarkReconfigure(b *testing.B) {
	s := Load(Config{ScaleFactor: 0.02, Seed: 7, InitialFormat: dict.FCInline})
	RunAll(s)
	mgr := core.NewManager(core.Options{InitialC: 1, Strategy: core.StrategyTilt})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		SetAllFormats(s, dict.FCInline)
		b.StartTimer()
		Reconfigure(s, mgr, 1e9, 0.01, 7)
	}
}
