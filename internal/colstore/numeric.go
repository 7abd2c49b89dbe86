package colstore

import "math"

// NumericKind names a numeric column's element type to the layers that do
// not carry it as a type parameter (the Journal, checkpoints, recovery).
type NumericKind uint8

const (
	Int64Kind   NumericKind = iota + 1 // words are two's complement
	Float64Kind                        // words are IEEE 754 bits
)

// NumericColumn is a plain numeric column. TPC-H measures, quantities and
// dates (as day numbers) live in Int64Columns, prices, discounts and taxes
// in Float64Columns; the paper's dictionary work only concerns string
// columns, so numeric columns stay uncompressed.
type NumericColumn[T int64 | float64] struct {
	name    string
	vals    []T
	journal Journal
}

type (
	Int64Column   = NumericColumn[int64]
	Float64Column = NumericColumn[float64]
)

// Numeric is a numeric column without its element type, as the layers that
// only move rows see it and as the disk formats store it: a name, a kind
// and rows of 8-byte words.
type Numeric interface {
	Name() string
	Len() int
	Kind() NumericKind
	Word(row int) uint64
	AppendWord(w uint64)
	RestoreWords(n int, word func(row int) uint64)
}

// toWord returns v's kind and 8-byte word.
func toWord[T int64 | float64](v T) (NumericKind, uint64) {
	if f, ok := any(v).(float64); ok {
		return Float64Kind, math.Float64bits(f)
	}
	return Int64Kind, uint64(v)
}

// fromWord is toWord's inverse for element type T.
func fromWord[T int64 | float64](w uint64) T {
	var v T
	if _, ok := any(v).(float64); ok {
		return T(math.Float64frombits(w))
	}
	return T(int64(w))
}

// Name returns the column name.
func (c *NumericColumn[T]) Name() string { return c.name }

// Len returns the number of rows.
func (c *NumericColumn[T]) Len() int { return len(c.vals) }

// Kind returns the element type's kind.
func (c *NumericColumn[T]) Kind() NumericKind {
	var v T
	k, _ := toWord(v)
	return k
}

// Append adds a value. Numeric appends are not goroutine-safe (unlike
// StringColumn), so journal order trivially follows append order.
func (c *NumericColumn[T]) Append(v T) {
	c.vals = append(c.vals, v)
	if c.journal != nil {
		c.journalAppend(v)
	}
}

// journalAppend is split from Append so that Append stays inlinable.
func (c *NumericColumn[T]) journalAppend(v T) {
	k, w := toWord(v)
	c.journal.JournalAppendNumeric(c.name, k, w)
}

// Get returns the value at a row.
func (c *NumericColumn[T]) Get(row int) T { return c.vals[row] }

// Word returns the value at a row as its 8-byte word.
func (c *NumericColumn[T]) Word(row int) uint64 {
	_, w := toWord(c.vals[row])
	return w
}

// AppendWord is Append for a value given as its 8-byte word; the persist
// recovery path replays journaled rows through it.
func (c *NumericColumn[T]) AppendWord(w uint64) { c.Append(fromWord[T](w)) }

// RestoreWords installs n recovered rows, row i being word(i), on an empty
// column; the persist recovery path, which then replays journaled rows on
// top via AppendWord. Restoring a non-empty column is a programming error
// and panics.
func (c *NumericColumn[T]) RestoreWords(n int, word func(row int) uint64) {
	if len(c.vals) != 0 {
		panic("colstore: RestoreWords on a non-empty column")
	}
	c.vals = make([]T, n)
	for i := range c.vals {
		c.vals[i] = fromWord[T](word(i))
	}
}

// Bytes returns the memory footprint.
func (c *NumericColumn[T]) Bytes() uint64 { return uint64(len(c.vals)) * 8 }

// announce installs the column's journal and tells it the column exists.
func (c *NumericColumn[T]) announce(j Journal, table, name string) {
	c.journal = j
	if j != nil {
		j.JournalAddNumeric(table, name, c.Kind())
	}
}
