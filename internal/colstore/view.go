package colstore

// View is one query's read surface over a Store (DESIGN.md, "Value IDs are
// scoped to a Snapshot"): every string column the query touches is pinned
// once, on first touch, and every later touch gets that same Snapshot back,
// so all value IDs in a plan come from one dictionary version per column
// however many merges publish meanwhile. A table's row count is fixed when
// the table is first touched — before any of its columns is pinned, so
// every pinned column covers at least that many rows.
//
// Like the snapshots it holds, a View belongs to one goroutine. Release it
// exactly once when the query is done.
type View struct {
	store  *Store
	tables map[string]*TableView
}

// TableView is one table as seen by a View: a fixed row count, pinned string
// columns, and the live numeric columns (which carry no value IDs).
type TableView struct {
	t     *Table
	rows  int
	snaps map[string]*Snapshot
}

// View opens a query view on the store.
func (s *Store) View() *View {
	s.liveViews.Add(1)
	return &View{store: s, tables: make(map[string]*TableView)}
}

// LiveViews returns the number of views opened and not yet released — zero
// whenever no query is running.
func (s *Store) LiveViews() int64 { return s.liveViews.Load() }

// Table returns the view of a table, panicking on unknown names.
func (v *View) Table(name string) *TableView {
	tv := v.tables[name]
	if tv == nil {
		t := v.store.Table(name)
		tv = &TableView{t: t, rows: t.Rows(), snaps: make(map[string]*Snapshot)}
		v.tables[name] = tv
	}
	return tv
}

// Release releases every snapshot the view pinned, flushing their trace
// counters to the columns.
func (v *View) Release() {
	for _, tv := range v.tables {
		for _, s := range tv.snaps {
			s.Release()
		}
	}
	v.store.liveViews.Add(-1)
}

// Rows returns the table's row count as of the view's first touch of it.
func (tv *TableView) Rows() int { return tv.rows }

// Str returns the view's snapshot of a string column, pinning it on first
// touch.
func (tv *TableView) Str(name string) *Snapshot {
	s := tv.snaps[name]
	if s == nil {
		s = tv.t.Str(name).Snapshot()
		tv.snaps[name] = s
	}
	return s
}

// Int returns a numeric column.
func (tv *TableView) Int(name string) *Int64Column { return tv.t.Int(name) }

// Float returns a float column.
func (tv *TableView) Float(name string) *Float64Column { return tv.t.Float(name) }
