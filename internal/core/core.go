// Package core implements the compression manager of Section 5: the
// component that automatically selects a dictionary format for every string
// column of the store.
//
// The design decouples local from global information exactly as the paper
// describes. All factors local to a column — its content (via the size
// models of package model), the sizes of its other data structures, its
// access and update pattern — are reduced to two dimensions:
//
//	size(d, c)   = dict_size(d, c) + columnvector_size(c)
//	rel_time(d)  = (#extracts·t_e + #locates·t_l + #strings·t_c) / lifetime
//
// All global factors — memory pressure above all — are reduced to a single
// trade-off parameter c maintained by a smoothed feedback loop on free
// memory. Every time a dictionary is rebuilt (at merge time), a selection
// strategy uses the current c to pick a format from the candidates, so the
// automatic selection adds almost no overhead.
//
// # Concurrency
//
// Manager is safe for concurrent use: the trade-off parameter and its
// feedback-loop state live behind a mutex, so merge workers may call
// ChooseFormat while another goroutine feeds ObserveFreeMemory. A single
// column has one size model per format (dict.NumFormats(), twenty), but the
// models share a handful of probes memoised on the sample — three part sets,
// one Re-Pair run per part set, one trained codec per (part set, scheme),
// the OnPair and LZ78 parses — each computed once per sample.
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"strdict/internal/colstore"
	"strdict/internal/dict"
	"strdict/internal/model"
)

// ColumnStats carries everything the manager knows about one column at
// dictionary-reconstruction time.
type ColumnStats struct {
	// Name identifies the column (for reporting only).
	Name string
	// NumStrings is the number of dictionary entries after the merge.
	NumStrings uint64
	// Extracts and Locates are the expected numbers of calls to the
	// dictionary over its lifetime, deduced from column usage statistics.
	Extracts, Locates uint64
	// LifetimeNs is the expected time between two merges of the column, in
	// nanoseconds; construction cost is amortized over it.
	LifetimeNs float64
	// ColumnVectorBytes is the size of the column's code vector. It puts
	// the dictionary size into relation with the rest of the column: a
	// dictionary dwarfed by its vector gains little from compression.
	ColumnVectorBytes uint64
	// Sample is the sampled dictionary content for the size models.
	Sample *model.Sample
}

// SnapshotStats assembles the manager's input for one column from its traced
// access counters and a sample of its dictionary, all read from one pinned
// snapshot — the form a merge-time Chooser is handed. The access counters
// are the column's flushed totals, so release the snapshots of the workload
// being described first.
func SnapshotStats(s *colstore.Snapshot, lifetimeNs float64, sampleRatio float64, seed int64) ColumnStats {
	st := s.Stats()
	return ColumnStats{
		Name:              s.Name(),
		NumStrings:        uint64(s.DictLen()),
		Extracts:          st.Extracts,
		Locates:           st.Locates,
		LifetimeNs:        lifetimeNs,
		ColumnVectorBytes: s.VectorBytes(),
		Sample:            model.TakeSample(s.DictValues(), sampleRatio, seed),
	}
}

// Candidate is one format's predicted position in the space/time plane.
type Candidate struct {
	Format dict.Format
	// SizeBytes is size(d, c): predicted dictionary size plus the column
	// vector size.
	SizeBytes uint64
	// RelTime is time(d)/lifetime: the fraction of the dictionary's
	// lifetime spent inside its three methods.
	RelTime float64
}

// Candidates evaluates every dictionary format for the column: the size
// models predict dict_size, the cost table supplies the runtime constants.
// The result is sorted by RelTime ascending.
func Candidates(stats ColumnStats, costs *model.CostTable) []Candidate {
	if stats.Sample == nil {
		panic("core: ColumnStats.Sample must be set")
	}
	if stats.LifetimeNs <= 0 {
		stats.LifetimeNs = 1
	}
	sizes := model.EstimateEach(stats.Sample)
	out := make([]Candidate, 0, dict.NumFormats())
	for _, f := range dict.AllFormats() {
		t := costs.TimeNs(f, stats.Extracts, stats.Locates, stats.NumStrings)
		out = append(out, Candidate{
			Format:    f,
			SizeBytes: sizes[f] + stats.ColumnVectorBytes,
			RelTime:   t / stats.LifetimeNs,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].RelTime != out[j].RelTime {
			return out[i].RelTime < out[j].RelTime
		}
		return out[i].SizeBytes < out[j].SizeBytes
	})
	return out
}

// Strategy selects the dividing function f of Section 5.4. All strategies
// admit the set D_f = {d : size(d) <= f(rel_time(d))} and pick the fastest
// admitted variant.
type Strategy int

const (
	// StrategyTilt tilts the dividing line in favour of faster-but-bigger
	// variants; the slope grows with the smallest variant's relative
	// runtime. This is the strategy the paper evaluates end to end, and
	// therefore the zero value (the Manager default).
	StrategyTilt Strategy = iota
	// StrategyConst uses the constant offset of Lemke et al.:
	// f(t) = (1+c)·size_min. It ignores access frequency.
	StrategyConst
	// StrategyRel shifts the dividing line up by a multiple of the smallest
	// variant's relative runtime, admitting bigger variants for hot columns.
	StrategyRel
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyConst:
		return "const"
	case StrategyRel:
		return "rel"
	case StrategyTilt:
		return "tilt"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Select applies the strategy with trade-off parameter c to the candidates
// (any order) and returns the chosen one. c must be >= 0; larger c trades
// space for speed.
func Select(strategy Strategy, c float64, cands []Candidate) Candidate {
	if len(cands) == 0 {
		panic("core: no candidates")
	}
	dmin := smallest(cands)
	dspeed := fastest(cands)
	sizeMin := float64(dmin.SizeBytes)
	budgetAt := dividingFunc(strategy, c, dmin, dspeed, sizeMin)

	best := dmin
	haveBest := false
	for _, cand := range cands {
		if float64(cand.SizeBytes) <= budgetAt(cand.RelTime) {
			if !haveBest || cand.RelTime < best.RelTime ||
				(cand.RelTime == best.RelTime && cand.SizeBytes < best.SizeBytes) {
				best = cand
				haveBest = true
			}
		}
	}
	return best
}

// dividingFunc builds f(t) for the strategy; see Section 5.4.
func dividingFunc(strategy Strategy, c float64, dmin, dspeed Candidate, sizeMin float64) func(float64) float64 {
	constLine := (1 + c) * sizeMin
	tMin := dmin.RelTime
	tSpeed := dspeed.RelTime
	sizeSpeed := float64(dspeed.SizeBytes)

	switch strategy {
	case StrategyRel:
		// f(t) = (1 + c(1 + rel_time(d_min)·α)) · size_min with α from the
		// boundary condition: under rel_time(d_min)=1 the fastest variant
		// must be admitted, i.e. (1 + c(1+α))·size_min = size(d_speed).
		alpha := 0.0
		if c > 0 && sizeMin > 0 {
			alpha = (sizeSpeed/sizeMin-1)/c - 1
			if alpha < 0 {
				alpha = 0
			}
		}
		line := (1 + c*(1+tMin*alpha)) * sizeMin
		return func(float64) float64 { return line }

	case StrategyTilt:
		// f(t) = slope·t + b with slope = α·rel_time(d_min), crossing the
		// const line at t = rel_time(d_min). α comes from the paper's
		// boundary condition evaluated under the normalization
		// rel_time(d_min) = 1 (all rel_times divided by tMin):
		// f(rel_time(d_speed)) = size(d_speed) there, which makes the
		// fastest variant admissible exactly when the smallest variant
		// would consume the whole lifetime.
		alpha := 0.0
		if tMin > 0 {
			tSpeedHyp := tSpeed / tMin
			if tSpeedHyp != 1 {
				alpha = (sizeSpeed - constLine) / (tSpeedHyp - 1)
			}
		}
		if alpha > 0 {
			// The line must favour *faster* variants; a positive slope
			// would instead admit slower ones. Happens only when d_speed is
			// already within the const budget — fall back to const.
			alpha = 0
		}
		slope := alpha * tMin
		b := constLine - slope*tMin
		return func(t float64) float64 { return slope*t + b }

	default: // StrategyConst
		return func(float64) float64 { return constLine }
	}
}

func smallest(cands []Candidate) Candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.SizeBytes < best.SizeBytes ||
			(c.SizeBytes == best.SizeBytes && c.RelTime < best.RelTime) {
			best = c
		}
	}
	return best
}

func fastest(cands []Candidate) Candidate {
	best := cands[0]
	for _, c := range cands[1:] {
		if c.RelTime < best.RelTime ||
			(c.RelTime == best.RelTime && c.SizeBytes < best.SizeBytes) {
			best = c
		}
	}
	return best
}

// Options configures a Manager.
type Options struct {
	// DesiredFreeBytes is the reference input of the feedback loop: the
	// amount of free memory the manager steers towards.
	DesiredFreeBytes uint64
	// InitialC is the starting trade-off. Default 1.
	InitialC float64
	// Strategy is the dividing-function strategy. Default StrategyTilt,
	// the one the paper evaluates end to end.
	Strategy Strategy
	// Costs supplies the runtime constants. Default model.DefaultCostTable.
	Costs *model.CostTable
}

func (o *Options) fillDefaults() {
	if o.InitialC <= 0 {
		o.InitialC = 1
	}
	if o.Costs == nil {
		o.Costs = model.DefaultCostTable()
	}
}

// Manager is the compression manager: it owns the global trade-off
// parameter c, updates it from memory-pressure observations (the closed
// feedback loop of Figure 8), and selects a dictionary format whenever a
// column's dictionary is reconstructed.
//
// A Manager is safe for concurrent use.
type Manager struct {
	mu           sync.Mutex
	opts         Options
	c            float64
	smoothedFree float64
	haveObs      bool
}

// NewManager returns a manager with the given options.
func NewManager(opts Options) *Manager {
	opts.fillDefaults()
	return &Manager{opts: opts, c: opts.InitialC}
}

// C returns the current global trade-off parameter.
func (m *Manager) C() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.c
}

// MinC and MaxC clamp the trade-off parameter to the range the paper sweeps
// in Figure 10.
const MinC, MaxC = 1e-3, 10.0

// SetC overrides the trade-off parameter, clamped to [MinC, MaxC]. Used by
// the off-line evaluation to sweep configurations, and available as a manual
// override knob.
func (m *Manager) SetC(c float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.c = math.Min(math.Max(c, MinC), MaxC)
}

// The feedback loop's shape is fixed: the paper's manager takes the desired
// free memory from outside and nothing else (Section 5, Figure 8).
const (
	smoothing = 0.3  // EWMA factor on observations: one outlier cannot make c over-shoot
	step      = 0.25 // c moves ×1.25 or ÷1.25 per observation outside the dead band
	deadBand  = 0.05 // fraction of DesiredFreeBytes around the target within which c rests
)

// ObserveFreeMemory feeds one free-memory measurement into the feedback
// loop: the measurement is smoothed, compared against the desired amount of
// free memory, and c is adjusted multiplicatively when the smoothed value
// leaves the dead band. It returns the new c.
func (m *Manager) ObserveFreeMemory(freeBytes uint64) float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := float64(freeBytes)
	if !m.haveObs {
		m.smoothedFree = f
		m.haveObs = true
	} else {
		m.smoothedFree = smoothing*f + (1-smoothing)*m.smoothedFree
	}
	desired := float64(m.opts.DesiredFreeBytes)
	band := desired * deadBand
	switch {
	case m.smoothedFree < desired-band:
		// Memory pressure: favour smaller dictionaries.
		m.c /= 1 + step
	case m.smoothedFree > desired+band:
		// Plenty of memory: favour faster dictionaries.
		m.c *= 1 + step
	}
	m.c = math.Min(math.Max(m.c, MinC), MaxC)
	return m.c
}

// Decision records a format choice and the inputs that produced it.
type Decision struct {
	Format     dict.Format
	C          float64
	Strategy   Strategy
	Candidates []Candidate
}

// ChooseFormat runs the local selection for one column with the current
// global trade-off parameter. It is intended to be called exactly when the
// column's dictionary is rebuilt (merge of the write-optimized store, aging,
// initial load), so the format change costs no extra reconstruction.
func (m *Manager) ChooseFormat(stats ColumnStats) Decision {
	cands := Candidates(stats, m.opts.Costs)
	c := m.C()
	chosen := Select(m.opts.Strategy, c, cands)
	return Decision{
		Format:     chosen.Format,
		C:          c,
		Strategy:   m.opts.Strategy,
		Candidates: cands,
	}
}
