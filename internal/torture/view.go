package torture

import (
	"strdict/internal/colstore"
	"strdict/internal/dict"
)

// opViewJoin is oracle 6: a two-column dictionary-translation join
// (TableView.Join, the TPC-H plans' join) read through one colstore.View
// per round, while a full merge with a format change publishes on both
// columns and shifts their value IDs. The join and the check around it fetch
// each column from the view at each use, so only the view's pin-once
// contract keeps the IDs of one round in one dictionary version; the result
// is compared row by row against the same join over the model.
func (h *harness) opViewJoin() error {
	ai := h.rng.Intn(len(h.cols))
	bi := (ai + 1) % len(h.cols)
	a, b := h.cols[ai], h.cols[bi]

	// Fresh delta rows on every column, the key side drawing from the probe
	// side's pool so the join has matches and the merges introduce values.
	k := 50 + h.rng.Intn(300)
	vals := make([][]string, len(h.cols))
	for i, c := range h.cols {
		if i == bi {
			c = a
		}
		vals[i] = c.nextValues(h.rng, k)
	}
	h.appendRows(vals)

	tb := h.s.Table("t")
	formats := dict.AllFormats()
	newFormat := func(name string) dict.Format {
		i := h.rng.Intn(len(formats))
		if formats[i] == tb.Str(name).Format() {
			i = (i + 1) % len(formats)
		}
		return formats[i]
	}
	fa, fb := newFormat(a.name), newFormat(b.name)

	merged := make(chan struct{})
	go func() {
		defer close(merged)
		tb.Str(a.name).Merge(fa)
		tb.Str(b.name).Merge(fb)
	}()
	var err error
	rounds := 0
	for done := false; !done && err == nil; rounds++ {
		select {
		case <-merged:
			done = true // one more round, on the published versions
		default:
		}
		err = h.viewJoinRound(a, b)
	}
	<-merged
	if err != nil {
		return err
	}
	h.logf("step %d: view join %s x %s, %d rounds under merges -> %v, %v", h.step, a.name, b.name, rounds, fa, fb)
	if live := h.s.LiveViews(); live != 0 {
		return h.fail("view join: %d views still live", live)
	}
	if err := h.checkHealthy("view join merge"); err != nil {
		return err
	}
	h.raiseFloors()
	return nil
}

// viewJoinRound runs the join once on a fresh view: for every row of a, the
// last main-part row of b holding the same value (-1 if none, or if the row
// of a is not in its main part). Each row's value ID is read twice — in
// bulk through Codes before the loop, from the view's snapshot inside it —
// so a view that pinned a second version of a mid-round shows up as
// shifted IDs on every later row. The join runs twice: the first misses
// Join's translation cache whenever a merge just published on either side,
// the second hits what the first stored; both must give the model's rows.
func (h *harness) viewJoinRound(a, b *column) error {
	view := h.s.View()
	defer view.Release()
	tv := view.Table("t")
	if tv.Rows() != len(a.model) {
		return h.fail("view join: view rows %d, model %d", tv.Rows(), len(a.model))
	}
	joined := tv.Join(a.name, tv, b.name)
	warm := tv.Join(a.name, tv, b.name)
	codes := tv.Codes(a.name)

	want := make(map[string]int32)
	for row, v := range b.model[:tv.Str(b.name).MainRows()] {
		want[v] = int32(row)
	}
	for row, v := range a.model {
		code, hasCode := tv.Str(a.name).Code(row)
		if !hasCode {
			code = colstore.NoCode
		}
		if codes[row] != code {
			return h.fail("view join: %s row %d (%q) has value ID %d in Codes, %d in the view's snapshot",
				a.name, row, v, codes[row], code)
		}
		got := joined[row]
		wantRow, ok := want[v]
		if !ok || !hasCode {
			wantRow = -1 // absent from b's main part, or a row without a value ID
		}
		if got != wantRow || warm[row] != wantRow {
			return h.fail("view join: %s row %d (%q) joins %s row %d, then %d from the cached translation, model says %d",
				a.name, row, v, b.name, got, warm[row], wantRow)
		}
	}
	return nil
}
