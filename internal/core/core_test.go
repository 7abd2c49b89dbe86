package core

import (
	"math"
	"testing"
	"testing/quick"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/model"
)

// fixedCands is a hand-crafted space/time distribution: sizes in bytes,
// rel_times dimensionless, roughly pareto-shaped like Figure 9.
func fixedCands() []Candidate {
	return []Candidate{
		{Format: dict.ArrayFixed, SizeBytes: 10000, RelTime: 0.010},
		{Format: dict.Array, SizeBytes: 8000, RelTime: 0.012},
		{Format: dict.ArrayBC, SizeBytes: 6000, RelTime: 0.020},
		{Format: dict.FCBlock, SizeBytes: 4000, RelTime: 0.050},
		{Format: dict.FCBlockHU, SizeBytes: 3000, RelTime: 0.120},
		{Format: dict.FCBlockRP12, SizeBytes: 2000, RelTime: 0.400},
	}
}

func TestSelectConstSmallC(t *testing.T) {
	// c near zero: only the smallest variant is admitted.
	got := Select(StrategyConst, 0.0, fixedCands())
	if got.Format != dict.FCBlockRP12 {
		t.Fatalf("got %s, want fc block rp 12", got.Format)
	}
}

func TestSelectConstLargeC(t *testing.T) {
	// c=10: everything within 11x the smallest size is admitted; the
	// fastest admitted is array (8000 <= 22000) and array fixed
	// (10000 <= 22000) — array fixed is faster.
	got := Select(StrategyConst, 10, fixedCands())
	if got.Format != dict.ArrayFixed {
		t.Fatalf("got %s, want array fixed", got.Format)
	}
}

func TestSelectConstMidC(t *testing.T) {
	// c=1: budget 4000, admits fc block (fastest among <=4000).
	got := Select(StrategyConst, 1, fixedCands())
	if got.Format != dict.FCBlock {
		t.Fatalf("got %s, want fc block", got.Format)
	}
}

func TestSelectMonotoneInC(t *testing.T) {
	// Increasing c must never select a slower variant.
	for _, strat := range []Strategy{StrategyConst, StrategyRel, StrategyTilt} {
		prev := math.Inf(1)
		for _, c := range []float64{0.001, 0.01, 0.1, 0.5, 1, 2, 5, 10} {
			sel := Select(strat, c, fixedCands())
			if sel.RelTime > prev {
				t.Errorf("%s: rel_time increased from %g to %g at c=%g",
					strat, prev, sel.RelTime, c)
			}
			prev = sel.RelTime
		}
	}
}

func TestSelectAlwaysAdmitsSmallest(t *testing.T) {
	// The smallest variant is always in D_f; Select never fails.
	f := func(sizes []uint16, times []uint16, cRaw uint8) bool {
		n := len(sizes)
		if len(times) < n {
			n = len(times)
		}
		if n == 0 {
			return true
		}
		cands := make([]Candidate, n)
		for i := 0; i < n; i++ {
			cands[i] = Candidate{
				Format:    dict.Format(i % dict.NumFormats()),
				SizeBytes: uint64(sizes[i]) + 1,
				RelTime:   float64(times[i]) / 65536,
			}
		}
		c := float64(cRaw) / 16
		for _, strat := range []Strategy{StrategyConst, StrategyRel, StrategyTilt} {
			sel := Select(strat, c, cands)
			// selected candidate must be one of the inputs
			ok := false
			for _, cand := range cands {
				if cand == sel {
					ok = true
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTiltFavoursSpeedForHotColumns(t *testing.T) {
	// Same sizes, but rel_times scaled up (hot column, short lifetime):
	// tilt must admit a faster format than const does at the same c.
	cands := fixedCands()
	hot := make([]Candidate, len(cands))
	for i, c := range cands {
		c.RelTime *= 60 // smallest variant now consumes 24x... lifetime
		hot[i] = c
	}
	c := 0.5
	constSel := Select(StrategyConst, c, hot)
	tiltSel := Select(StrategyTilt, c, hot)
	if tiltSel.RelTime > constSel.RelTime {
		t.Fatalf("tilt (%s, rt=%g) slower than const (%s, rt=%g) on hot column",
			tiltSel.Format, tiltSel.RelTime, constSel.Format, constSel.RelTime)
	}
	if tiltSel.Format == constSel.Format {
		t.Fatalf("tilt did not react to access frequency (both %s)", tiltSel.Format)
	}
}

func TestTiltSelectsFastestWhenLifetimeExhausted(t *testing.T) {
	// Boundary condition of Section 5.4: if the smallest variant's runtime
	// reaches 100% of the lifetime, the fastest variant must be chosen.
	cands := fixedCands()
	scaled := make([]Candidate, len(cands))
	for i, c := range cands {
		c.RelTime *= 1 / 0.4 // smallest (rp12) now has rel_time exactly 1
		scaled[i] = c
	}
	sel := Select(StrategyTilt, 0.5, scaled)
	if sel.Format != dict.ArrayFixed {
		t.Fatalf("got %s, want the fastest (array fixed)", sel.Format)
	}
}

func TestCandidatesUseModels(t *testing.T) {
	strs := datagen.Generate("url", 5000, 1)
	stats := ColumnStats{
		Name:              "t.url",
		NumStrings:        uint64(len(strs)),
		Extracts:          100000,
		Locates:           100,
		LifetimeNs:        1e12,
		ColumnVectorBytes: 1 << 16,
		Sample:            model.TakeSample(strs, 1.0, 1),
	}
	cands := Candidates(stats, model.DefaultCostTable())
	if len(cands) != dict.NumFormats() {
		t.Fatalf("%d candidates", len(cands))
	}
	// Sorted by rel time.
	for i := 1; i < len(cands); i++ {
		if cands[i].RelTime < cands[i-1].RelTime {
			t.Fatal("candidates not sorted by rel time")
		}
	}
	// Every size includes the column vector.
	for _, c := range cands {
		if c.SizeBytes <= stats.ColumnVectorBytes {
			t.Errorf("%s: size %d does not include column vector", c.Format, c.SizeBytes)
		}
	}
}

func TestManagerFeedbackLoop(t *testing.T) {
	m := NewManager(Options{DesiredFreeBytes: 1 << 30, InitialC: 1})
	c0 := m.C()
	// Memory pressure: repeated low free-memory observations must drive c
	// down (compress more).
	for i := 0; i < 20; i++ {
		m.ObserveFreeMemory(1 << 28)
	}
	if m.C() >= c0 {
		t.Fatalf("c did not decrease under memory pressure: %g -> %g", c0, m.C())
	}
	low := m.C()
	// Abundant memory: c must recover upward.
	for i := 0; i < 40; i++ {
		m.ObserveFreeMemory(1 << 31)
	}
	if m.C() <= low {
		t.Fatalf("c did not increase with free memory: %g -> %g", low, m.C())
	}
}

func TestManagerClampsC(t *testing.T) {
	m := NewManager(Options{DesiredFreeBytes: 1 << 30})
	for i := 0; i < 1000; i++ {
		m.ObserveFreeMemory(0)
	}
	if m.C() < 1e-3 {
		t.Fatalf("c fell below MinC: %g", m.C())
	}
	for i := 0; i < 1000; i++ {
		m.ObserveFreeMemory(1 << 40)
	}
	if m.C() > 10 {
		t.Fatalf("c rose above MaxC: %g", m.C())
	}
}

func TestManagerSmoothingAvoidsOvershoot(t *testing.T) {
	// A single outlier observation inside a stable regime must not flip c.
	m := NewManager(Options{DesiredFreeBytes: 1 << 30})
	for i := 0; i < 50; i++ {
		m.ObserveFreeMemory(1 << 30) // exactly at target: dead band
	}
	stable := m.C()
	m.ObserveFreeMemory(0) // one outlier
	if got := m.C(); math.Abs(got-stable)/stable > 0.3 {
		t.Fatalf("single outlier moved c from %g to %g", stable, got)
	}
}

func TestManagerChooseFormatRespondsToC(t *testing.T) {
	strs := datagen.Generate("src", 8000, 1)
	stats := ColumnStats{
		NumStrings: uint64(len(strs)),
		Extracts:   1000,
		Locates:    10,
		LifetimeNs: 1e12,
		Sample:     model.TakeSample(strs, 1.0, 1),
	}
	m := NewManager(Options{DesiredFreeBytes: 1 << 30})

	m.SetC(1e-3)
	small := m.ChooseFormat(stats)
	m.SetC(10)
	fast := m.ChooseFormat(stats)

	costs := model.DefaultCostTable()
	if costs.Of(fast.Format).ExtractNs > costs.Of(small.Format).ExtractNs {
		t.Fatalf("c=10 chose slower format (%s) than c=0.001 (%s)",
			fast.Format, small.Format)
	}
	var sizeSmall, sizeFast uint64
	for _, cand := range small.Candidates {
		if cand.Format == small.Format {
			sizeSmall = cand.SizeBytes
		}
		if cand.Format == fast.Format {
			sizeFast = cand.SizeBytes
		}
	}
	if sizeSmall > sizeFast {
		t.Fatalf("c=0.001 chose bigger format (%s, %d) than c=10 (%s, %d)",
			small.Format, sizeSmall, fast.Format, sizeFast)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyConst.String() != "const" || StrategyRel.String() != "rel" ||
		StrategyTilt.String() != "tilt" {
		t.Fatal("strategy names")
	}
}
