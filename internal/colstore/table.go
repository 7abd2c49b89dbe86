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

	mu    sync.RWMutex
	cols  map[string]column // every column, whatever its type, by name
	order []string          // column names in definition order

	// journal, when non-nil, is inherited by columns defined on this table
	// and receives their DDL events. Set by Store.AddTable / SetJournal.
	journal Journal
}

// column is what a table needs of a column regardless of its type.
type column interface {
	Len() int
	Bytes() uint64
	// announce installs j as the column's journal and, when j is non-nil,
	// emits the column's DDL event.
	announce(j Journal, table, name string)
}

// NewTable returns an empty table.
func NewTable(name string) *Table {
	return &Table{Name: name, cols: make(map[string]column)}
}

func addColumn[C column](t *Table, name string, c C) C {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cols[name] = c
	t.order = append(t.order, name)
	c.announce(t.journal, t.Name, name)
	return c
}

// lookupColumn returns the column of that name if it has type C.
func lookupColumn[C any](t *Table, name string) (C, bool) {
	t.mu.RLock()
	c, ok := t.cols[name].(C)
	t.mu.RUnlock()
	return c, ok
}

// mustColumn panics on unknown names, which are programming errors in
// hand-written query plans.
func mustColumn[C any](t *Table, kind, name string) C {
	c, ok := lookupColumn[C](t, name)
	if !ok {
		panic(fmt.Sprintf("colstore: no %s column %s.%s", kind, t.Name, name))
	}
	return c
}

// columnsOf returns the table's columns of type C in definition order.
func columnsOf[C any](t *Table) []C {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []C
	for _, name := range t.order {
		if c, ok := t.cols[name].(C); ok {
			out = append(out, c)
		}
	}
	return out
}

// AddString defines a string column with an initial dictionary format.
func (t *Table) AddString(name string, format dict.Format) *StringColumn {
	return addColumn(t, name, NewStringColumn(t.Name+"."+name, format))
}

// AddInt64 defines a numeric column.
func (t *Table) AddInt64(name string) *Int64Column {
	return addColumn(t, name, &Int64Column{name: t.Name + "." + name})
}

// AddFloat64 defines a float column.
func (t *Table) AddFloat64(name string) *Float64Column {
	return addColumn(t, name, &Float64Column{name: t.Name + "." + name})
}

// Str returns a string column, panicking on unknown names.
func (t *Table) Str(name string) *StringColumn {
	return mustColumn[*StringColumn](t, "string", name)
}

// Int returns a numeric column, panicking on unknown names.
func (t *Table) Int(name string) *Int64Column {
	return mustColumn[*Int64Column](t, "int", name)
}

// Float returns a float column, panicking on unknown names.
func (t *Table) Float(name string) *Float64Column {
	return mustColumn[*Float64Column](t, "float", name)
}

// LookupString returns a string column by name without panicking.
func (t *Table) LookupString(name string) (*StringColumn, bool) {
	return lookupColumn[*StringColumn](t, name)
}

// LookupInt64 returns a numeric column by name without panicking.
func (t *Table) LookupInt64(name string) (*Int64Column, bool) {
	return lookupColumn[*Int64Column](t, name)
}

// LookupFloat64 returns a float column by name without panicking.
func (t *Table) LookupFloat64(name string) (*Float64Column, bool) {
	return lookupColumn[*Float64Column](t, name)
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
func (t *Table) StringColumns() []*StringColumn { return columnsOf[*StringColumn](t) }

// Int64Columns returns the table's int columns in definition order.
func (t *Table) Int64Columns() []*Int64Column { return columnsOf[*Int64Column](t) }

// Float64Columns returns the table's float columns in definition order.
func (t *Table) Float64Columns() []*Float64Column { return columnsOf[*Float64Column](t) }

// NumericColumns returns the table's int and float columns in definition
// order, without their element types.
func (t *Table) NumericColumns() []Numeric { return columnsOf[Numeric](t) }

// Rows returns the number of rows, taken from the first column.
func (t *Table) Rows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if len(t.order) == 0 {
		return 0
	}
	return t.cols[t.order[0]].Len()
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
	for _, c := range t.cols {
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
	for _, name := range t.order {
		t.cols[name].announce(j, t.Name, name)
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
