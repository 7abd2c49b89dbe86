package colstore

import (
	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// Journal receives a store's durability events: schema definition, row
// appends, and main-part publications. The persist subsystem implements it
// with a write-ahead log plus checkpoints; a nil journal (the default)
// keeps the store purely in-memory with zero overhead on the hot paths.
//
// Calling contract:
//
//   - JournalAppend is invoked with the column's append mutex held, so the
//     journal observes one column's appends in exactly row order. The
//     implementation must be O(1)-ish and must never call back into the
//     column (deadlock).
//   - JournalMainPart is invoked after a merge/rebuild publishes a new main
//     part, with the column's merge mutex held: publications arrive in
//     order, one at a time per column. The dictionary and code vector are
//     immutable — the journal may retain or serialize them off-thread.
//   - DDL events (JournalAdd*) follow the package DDL rule: they are not
//     goroutine-safe and complete before concurrent traffic starts.
//   - All other methods must be safe for concurrent use across columns.
type Journal interface {
	JournalAddTable(table string)
	JournalAddString(table, column string, format dict.Format)
	JournalAddNumeric(table, column string, kind NumericKind)

	// JournalAppend records one appended row. column is the full column
	// name (table.column), as reported by Name(). A numeric row arrives as
	// its kind and 8-byte word (see Numeric), and for numeric columns these
	// calls double as the journal's dirtiness signal: a checkpoint rewrites
	// a numeric column's part file iff appends arrived since it was last
	// written (the part snapshots the full value slice).
	JournalAppend(column string, value string)
	JournalAppendNumeric(column string, kind NumericKind, word uint64)

	// JournalMainPart records a newly published read-optimized main part:
	// the dictionary, the compressed code vector and the number of main rows
	// it covers (always codes.Len()). Emitted by Merge, MergePartial and
	// Rebuild after their atomic publish. This is a string column's
	// dirtiness signal: the persist journal rewrites a string column's part
	// file at the next checkpoint iff a publication arrived since the part
	// was last written — delta appends ride in the WAL and do not stale it —
	// so clean columns' parts are re-referenced, not rewritten.
	JournalMainPart(column string, d dict.Dictionary, codes intcomp.Vector, nMain int)
}

// SetJournal attaches a journal to the store: existing tables and columns
// are wired (and re-announced to the journal as DDL events, which
// implementations deduplicate by name), and tables or columns defined later
// inherit it at creation time. Like all DDL it is not goroutine-safe; call
// it before concurrent traffic starts. A nil journal detaches.
func (s *Store) SetJournal(j Journal) {
	s.mu.Lock()
	s.journal = j
	names := make([]string, len(s.names))
	copy(names, s.names)
	s.mu.Unlock()
	for _, name := range names {
		s.Table(name).setJournal(j)
	}
}

// announce installs the column's journal and tells it the column exists.
// The journal is set under both mutexes, so the append path (appendMu) and
// the merge/rebuild path (mergeMu) each read it under the lock they already
// hold.
func (c *StringColumn) announce(j Journal, table, name string) {
	c.mergeMu.Lock()
	c.appendMu.Lock()
	c.journal = j
	c.appendMu.Unlock()
	c.mergeMu.Unlock()
	if j != nil {
		j.JournalAddString(table, name, c.Format())
	}
}

// journalMainPart emits a main-part publication if a journal is attached.
// The caller holds mergeMu (it just published the version).
func (c *StringColumn) journalMainPart(d dict.Dictionary, codes intcomp.Vector, nMain int) {
	if c.journal != nil {
		c.journal.JournalMainPart(c.name, d, codes, nMain)
	}
}

// MainParts returns the published read-optimized main part: the dictionary,
// the compressed code vector, and the number of rows they cover. The parts
// are immutable; this is the store-wide checkpoint path (the per-merge path
// receives the same triple through the Journal).
func (c *StringColumn) MainParts() (dict.Dictionary, intcomp.Vector, int) {
	v := c.version.Load()
	return v.dict, v.codes, v.nMain
}

// RestoreMain installs a recovered main part on a freshly created, empty
// column: the recovery path of the persist subsystem, which then replays
// journaled delta rows on top via Append. codes must index into d (the
// caller validates code bounds against d.Len() after deserialization) and
// the column must not have been appended to yet; violating either is a
// programming error and panics.
func (c *StringColumn) RestoreMain(d dict.Dictionary, codes intcomp.Vector) {
	c.mergeMu.Lock()
	defer c.mergeMu.Unlock()
	if c.totalRows.Load() != 0 {
		panic("colstore: RestoreMain on a non-empty column")
	}
	c.version.Store(&columnVersion{
		dict:    d,
		codes:   codes,
		nMain:   codes.Len(),
		dictGen: c.version.Load().dictGen + 1,
		counts:  new(countTable),
	})
	c.totalRows.Store(int64(codes.Len()))
}
