package torture

// The differential oracles. Each is a pure check over quiescent state; the
// harness calls 1 and 2 after every step, 3 as its own (randomly scheduled)
// step, and 4 inside the crash/recover scenario in scenarios.go.

import (
	"fmt"
	"slices"
	"sort"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

// checkModel is oracle 1: the engine agrees with the naive model store on
// every column — row counts and row values (sampled densely; small columns
// are compared in full).
func (h *harness) checkModel() error {
	tb := h.s.Table("t")
	for _, c := range h.cols {
		ec := tb.Str(c.name)
		if ec.Len() != len(c.model) {
			return h.fail("model: %s rows engine=%d model=%d", c.name, ec.Len(), len(c.model))
		}
		for _, i := range h.sampleRows(len(c.model)) {
			if got := ec.Get(i); got != c.model[i] {
				return h.fail("model: %s row %d engine=%q model=%q", c.name, i, got, c.model[i])
			}
		}
	}
	ic, fc := tb.Int("i"), tb.Float("f")
	if ic.Len() != len(h.intModel) || fc.Len() != len(h.floatModel) {
		return h.fail("model: numeric rows engine=%d/%d model=%d/%d",
			ic.Len(), fc.Len(), len(h.intModel), len(h.floatModel))
	}
	for _, i := range h.sampleRows(len(h.intModel)) {
		if ic.Get(i) != h.intModel[i] {
			return h.fail("model: int row %d engine=%d model=%d", i, ic.Get(i), h.intModel[i])
		}
		if fc.Get(i) != h.floatModel[i] {
			return h.fail("model: float row %d engine=%v model=%v", i, fc.Get(i), h.floatModel[i])
		}
	}
	return nil
}

// sampleRows picks the rows oracle 1 compares: everything for small
// columns, otherwise both ends (merge/recovery boundaries live there) plus
// a random spread.
func (h *harness) sampleRows(n int) []int {
	if n <= 512 {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rows := make([]int, 0, 320)
	for i := 0; i < 32; i++ {
		rows = append(rows, i, n-1-i)
	}
	for i := 0; i < 256; i++ {
		rows = append(rows, h.rng.Intn(n))
	}
	return rows
}

// checkKernels is oracle 2: the vectorized ScanEq/ScanRange/CountEq paths
// agree with the per-row Get oracle on one snapshot per column, for probes both present in and absent from the corpus.
func (h *harness) checkKernels() error {
	tb := h.s.Table("t")
	for _, c := range h.cols {
		probes := []string{
			c.pool[h.rng.Intn(len(c.pool))],
			c.pool[h.rng.Intn(len(c.pool))],
			c.pool[h.rng.Intn(len(c.pool))] + "\x01absent", // never in any corpus
		}
		lo := c.pool[h.rng.Intn(len(c.pool))]
		hi := c.pool[h.rng.Intn(len(c.pool))]
		if lo > hi {
			lo, hi = hi, lo
		}
		snap := tb.Str(c.name).Snapshot()
		err := kernelsMatchGet(snap, probes, lo, hi)
		snap.Release()
		if err != nil {
			return h.fail("kernels: %s %v", c.name, err)
		}
	}
	return nil
}

// kernelsMatchGet checks ScanEq and CountEq for every probe, and
// ScanRange(lo, hi), against an oracle that reads each row of snap through
// Snapshot.Get and compares strings. The oracle shares no code with the
// scans: no code-vector predicate, no locate, no delta-segment scan.
func kernelsMatchGet(snap *colstore.Snapshot, probes []string, lo, hi string) error {
	vals := make([]string, snap.Len())
	for row := range vals {
		vals[row] = snap.Get(row)
	}
	getScan := func(keep func(string) bool) (rows []int) {
		for row, v := range vals {
			if keep(v) {
				rows = append(rows, row)
			}
		}
		return rows
	}
	for _, p := range probes {
		want := getScan(func(v string) bool { return v == p })
		if got := snap.ScanEq(p, nil); !slices.Equal(got, want) {
			return fmt.Errorf("ScanEq(%q) kernel=%d rows Get oracle=%d rows", p, len(got), len(want))
		}
		if got := snap.CountEq(p); got != len(want) {
			return fmt.Errorf("CountEq(%q)=%d Get oracle=%d", p, got, len(want))
		}
	}
	want := getScan(func(v string) bool { return lo <= v && v < hi })
	if got := snap.ScanRange(lo, hi, nil); !slices.Equal(got, want) {
		return fmt.Errorf("ScanRange(%q,%q) kernel=%d rows Get oracle=%d rows", lo, hi, len(got), len(want))
	}
	return nil
}

// opCrossFormat is oracle 3: build every dictionary format over one
// column's current dictionary values and compare them all pairwise —
// Extract over the full id space, Locate for present and absent probes.
// Order preservation makes every format assign identical ids, so the
// comparison is direct.
func (h *harness) opCrossFormat() error {
	c := h.cols[h.rng.Intn(len(h.cols))]
	ec := h.s.Table("t").Str(c.name)
	snap := ec.Snapshot()
	values := snap.DictValues()
	snap.Release()
	if len(values) == 0 {
		return nil
	}
	// DictValues comes from the dictionary: sorted unique by construction.
	// Guard the invariant anyway — a violation here is itself a bug.
	if !sort.StringsAreSorted(values) {
		return h.fail("cross-format: %s dictionary values not sorted", c.name)
	}
	h.logf("step %d: cross-format %s over %d values", h.step, c.name, len(values))

	formats := dict.AllFormats()
	dicts := make([]dict.Dictionary, len(formats))
	for i, f := range formats {
		d, err := dict.Build(f, values)
		if err != nil {
			return h.fail("cross-format: build %v: %v", f, err)
		}
		if d.Len() != len(values) {
			return h.fail("cross-format: %v Len=%d want %d", f, d.Len(), len(values))
		}
		dicts[i] = d
	}
	// Extract: every id, every format, against the source values (which are
	// also what every other format must produce — transitivity).
	for id := range values {
		for i, d := range dicts {
			if got := d.Extract(uint32(id)); got != values[id] {
				return h.fail("cross-format: %v Extract(%d)=%q want %q", formats[i], id, got, values[id])
			}
		}
	}
	// Locate: present probes hit their id, absent probes miss in every
	// format alike.
	for k := 0; k < 16; k++ {
		probe := values[h.rng.Intn(len(values))]
		for i, d := range dicts {
			id, ok := d.Locate(probe)
			if !ok || values[id] != probe {
				return h.fail("cross-format: %v Locate(%q)=(%d,%v)", formats[i], probe, id, ok)
			}
		}
		absent := probe + "\x01absent"
		for i, d := range dicts {
			if id, ok := d.Locate(absent); ok {
				return h.fail("cross-format: %v Locate(absent %q)=(%d,true)", formats[i], absent, id)
			}
		}
	}
	return nil
}
