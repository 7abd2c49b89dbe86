package colstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"strdict/internal/dict"
)

// Table is a set of equally-long columns.
//
// Column definition (AddString/AddInt64/AddFloat64) is serialized against
// column lookup and iteration by an internal RWMutex, so tables can grow
// while merge daemons iterate StringColumns and while readers resolve
// columns by name. The columns themselves keep their own concurrency
// contracts (StringColumn appends are single-writer under appendMu; numeric
// appends are not goroutine-safe and need external exclusion).
type Table struct {
	Name string

	mu        sync.RWMutex
	strCols   map[string]*StringColumn
	intCols   map[string]*Int64Column
	floatCols map[string]*Float64Column
	order     []string // column names in definition order

	// journal, when non-nil, is inherited by columns defined on this table
	// and receives their DDL events. Set by Store.AddTable / SetJournal.
	journal Journal
}

// NewTable returns an empty table.
func NewTable(name string) *Table {
	return &Table{
		Name:      name,
		strCols:   make(map[string]*StringColumn),
		intCols:   make(map[string]*Int64Column),
		floatCols: make(map[string]*Float64Column),
	}
}

// AddString defines a string column with an initial dictionary format.
func (t *Table) AddString(name string, format dict.Format) *StringColumn {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := NewStringColumn(t.Name+"."+name, format)
	c.journal = t.journal
	t.strCols[name] = c
	t.order = append(t.order, name)
	if t.journal != nil {
		t.journal.JournalAddString(t.Name, name, format)
	}
	return c
}

// AddInt64 defines a numeric column.
func (t *Table) AddInt64(name string) *Int64Column {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := NewInt64Column(t.Name + "." + name)
	c.journal = t.journal
	t.intCols[name] = c
	t.order = append(t.order, name)
	if t.journal != nil {
		t.journal.JournalAddInt64(t.Name, name)
	}
	return c
}

// AddFloat64 defines a float column.
func (t *Table) AddFloat64(name string) *Float64Column {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := NewFloat64Column(t.Name + "." + name)
	c.journal = t.journal
	t.floatCols[name] = c
	t.order = append(t.order, name)
	if t.journal != nil {
		t.journal.JournalAddFloat64(t.Name, name)
	}
	return c
}

// Str returns a string column; it panics on unknown names, which are
// programming errors in hand-written query plans.
func (t *Table) Str(name string) *StringColumn {
	c, ok := t.LookupString(name)
	if !ok {
		panic(fmt.Sprintf("colstore: no string column %s.%s", t.Name, name))
	}
	return c
}

// Int returns a numeric column.
func (t *Table) Int(name string) *Int64Column {
	c, ok := t.LookupInt64(name)
	if !ok {
		panic(fmt.Sprintf("colstore: no int column %s.%s", t.Name, name))
	}
	return c
}

// Float returns a float column.
func (t *Table) Float(name string) *Float64Column {
	c, ok := t.LookupFloat64(name)
	if !ok {
		panic(fmt.Sprintf("colstore: no float column %s.%s", t.Name, name))
	}
	return c
}

// LookupString returns a string column by name without panicking.
func (t *Table) LookupString(name string) (*StringColumn, bool) {
	t.mu.RLock()
	c, ok := t.strCols[name]
	t.mu.RUnlock()
	return c, ok
}

// LookupInt64 returns a numeric column by name without panicking.
func (t *Table) LookupInt64(name string) (*Int64Column, bool) {
	t.mu.RLock()
	c, ok := t.intCols[name]
	t.mu.RUnlock()
	return c, ok
}

// LookupFloat64 returns a float column by name without panicking.
func (t *Table) LookupFloat64(name string) (*Float64Column, bool) {
	t.mu.RLock()
	c, ok := t.floatCols[name]
	t.mu.RUnlock()
	return c, ok
}

// ColumnNames returns the column names in definition order.
func (t *Table) ColumnNames() []string {
	t.mu.RLock()
	out := make([]string, len(t.order))
	copy(out, t.order)
	t.mu.RUnlock()
	return out
}

// StringColumns returns the table's string columns in definition order.
func (t *Table) StringColumns() []*StringColumn {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*StringColumn
	for _, name := range t.order {
		if c, ok := t.strCols[name]; ok {
			out = append(out, c)
		}
	}
	return out
}

// Int64Columns returns the table's numeric columns in definition order.
func (t *Table) Int64Columns() []*Int64Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*Int64Column
	for _, name := range t.order {
		if c, ok := t.intCols[name]; ok {
			out = append(out, c)
		}
	}
	return out
}

// Float64Columns returns the table's float columns in definition order.
func (t *Table) Float64Columns() []*Float64Column {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*Float64Column
	for _, name := range t.order {
		if c, ok := t.floatCols[name]; ok {
			out = append(out, c)
		}
	}
	return out
}

// Rows returns the number of rows, taken from the first column.
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, name := range t.order {
		if c, ok := t.strCols[name]; ok {
			return c.Len()
		}
		if c, ok := t.intCols[name]; ok {
			return c.Len()
		}
		if c, ok := t.floatCols[name]; ok {
			return c.Len()
		}
	}
	return 0
}

// MergeAll merges every string column's delta into its main part, keeping
// each column's current format.
func (t *Table) MergeAll() {
	for _, c := range t.StringColumns() {
		c.Merge(c.Format())
	}
}

// Bytes returns the table's total memory footprint.
func (t *Table) Bytes() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b uint64
	for _, c := range t.strCols {
		b += c.Bytes()
	}
	for _, c := range t.intCols {
		b += c.Bytes()
	}
	for _, c := range t.floatCols {
		b += c.Bytes()
	}
	return b
}

// setJournal installs j on the table and re-announces its schema, called by
// Store.SetJournal under the store lock.
func (t *Table) setJournal(j Journal) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.journal = j
	if j != nil {
		j.JournalAddTable(t.Name)
	}
	for _, colName := range t.order {
		if c, ok := t.strCols[colName]; ok {
			c.setJournal(j)
			if j != nil {
				j.JournalAddString(t.Name, colName, c.Format())
			}
		}
		if c, ok := t.intCols[colName]; ok {
			c.journal = j
			if j != nil {
				j.JournalAddInt64(t.Name, colName)
			}
		}
		if c, ok := t.floatCols[colName]; ok {
			c.journal = j
			if j != nil {
				j.JournalAddFloat64(t.Name, colName)
			}
		}
	}
}

// Store is a set of tables — the whole database.
//
// Table creation is serialized against lookup and iteration by an internal
// RWMutex: AddTable may race with merge daemons walking StringColumns and
// with request handlers resolving tables by name. Direct access to the
// exported Tables map is only safe while no concurrent DDL is running
// (single-threaded setup, tests).
type Store struct {
	Tables map[string]*Table

	mu    sync.RWMutex
	names []string

	// journal, when non-nil, is inherited by tables created on this store.
	// Set via SetJournal (see journal.go).
	journal Journal

	liveViews atomic.Int64 // views opened and not yet released (see view.go)
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{Tables: make(map[string]*Table)}
}

// AddTable creates and registers a table.
func (s *Store) AddTable(name string) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := NewTable(name)
	t.journal = s.journal
	s.Tables[name] = t
	s.names = append(s.names, name)
	if s.journal != nil {
		s.journal.JournalAddTable(name)
	}
	return t
}

// Table returns a table by name, panicking on unknown names.
func (s *Store) Table(name string) *Table {
	t, ok := s.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("colstore: no table %s", name))
	}
	return t
}

// Lookup returns a table by name without panicking.
func (s *Store) Lookup(name string) (*Table, bool) {
	s.mu.RLock()
	t, ok := s.Tables[name]
	s.mu.RUnlock()
	return t, ok
}

// TableNames returns the tables in creation order.
func (s *Store) TableNames() []string {
	s.mu.RLock()
	out := make([]string, len(s.names))
	copy(out, s.names)
	s.mu.RUnlock()
	return out
}

// StringColumns returns every string column of every table.
func (s *Store) StringColumns() []*StringColumn {
	var out []*StringColumn
	for _, name := range s.TableNames() {
		if t, ok := s.Lookup(name); ok {
			out = append(out, t.StringColumns()...)
		}
	}
	return out
}

// Bytes returns the store's total memory footprint.
func (s *Store) Bytes() uint64 {
	var b uint64
	for _, name := range s.TableNames() {
		if t, ok := s.Lookup(name); ok {
			b += t.Bytes()
		}
	}
	return b
}

// ResetStats zeroes all dictionary access counters.
func (s *Store) ResetStats() {
	for _, c := range s.StringColumns() {
		c.ResetStats()
	}
}
