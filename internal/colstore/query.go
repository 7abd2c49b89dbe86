package colstore

// Query-plan building blocks on value IDs: predicates against constants cost
// one locate, joins translate one dictionary into the other side's code
// space — once per pair of dictionaries, the resulting map from value ID to
// key row is cached on the foreign key column — and only final result
// materialization extracts strings: exactly the dictionary access profile
// the compression manager's time model feeds on. They exist on Snapshot only (DESIGN.md, "Value IDs are scoped to a
// Snapshot"); a query gets its snapshots from a View, and reads whole
// columns of value IDs and whole foreign-key joins through the two TableView
// operators below, Codes and Join.

import (
	"slices"

	"strdict/internal/intcomp"
)

// NoCode is the value ID Codes reports for a row that has none: it is no ID
// of any dictionary, so it equals no located constant and is in no CodeSet.
const NoCode = ^uint32(0)

// Codes returns the value ID of a string column at each of the view's
// Rows() rows, decoded from the code vector in one pass with no dictionary
// operation. Rows past the column's MainRows are in the delta and have no
// value ID: they read NoCode, never an alias of ID 0.
func (tv *TableView) Codes(name string) []uint32 {
	return gatherMain(tv.Str(name), tv.rows, nil, NoCode)
}

// Join resolves a foreign key: for each of the view's Rows() rows, the row
// of key whose keyCol holds the same value as this table's fk column, or -1
// when there is none — the value is absent from keyCol's main part, or the
// fk row is in the delta and has no value ID. Key rows are main-part rows
// below key.Rows(); where keyCol repeats a value the last such row wins.
//
// It is one pass over the fk code vector through the column's cached join
// map (joinRows), which costs at most one dictionary translation per (fk
// dictionary, keyCol dictionary) pair — DictLen(fk) extracts on fk and as
// many locates on keyCol, counted on the query that misses the cache — and
// no dictionary operation on a hit or, when the cached map reached every
// key value, after an identity-preserving fold of keyCol.
func (tv *TableView) Join(fk string, key *TableView, keyCol string) []int32 {
	fs := tv.Str(fk)
	return gatherMain(fs, tv.rows, fs.joinRows(key.Str(keyCol), key.rows), -1)
}

// gatherMain decodes the first n rows of s's code vector through table
// (intcomp.Gather; nil reads the value IDs themselves). Rows past the main
// part have no value ID and read none.
func gatherMain[T int32 | uint32](s *Snapshot, n int, table []T, none T) []T {
	out := make([]T, n)
	nMain := min(s.v.nMain, n)
	intcomp.Gather(s.v.codes, 0, table, out[:nMain])
	for row := nMain; row < n; row++ {
		out[row] = none
	}
	return out
}

// joinTable is a cached join map: rows maps every value ID of generation
// fkGen of the owning column's dictionary to the last row below keyRows of
// key whose value ID in generation keyGen of key's dictionary is the same
// string, or -1 — a pure function of two immutable dictionaries and a
// prefix of key's code vector (a dictionary generation's code vector only
// ever grows at the end), none of which it pins. complete records that
// every key value ID had a row below keyRows, so a -1 means the value is
// not in key's dictionary at all.
type joinTable struct {
	fkGen    uint64
	key      *StringColumn
	keyGen   uint64
	keyRows  int
	complete bool
	rows     []int32
}

// joinRows returns the map from s's value IDs to the rows of key below
// keyRows that Join gathers through: the column's cached map when it is for
// this pair of dictionaries and this row limit, else a fresh one. A map
// between the same two dictionaries, complete and within key's main part,
// still holds the translation — key's code vector at the cached rows — so
// a new limit (a key-side fold that shared the dictionary) costs no
// dictionary operation; otherwise the map costs one translateCodes. The
// result replaces the cached map unless it would evict a complete one with
// an incomplete one, and is shared, read-only.
func (s *Snapshot) joinRows(key *Snapshot, keyRows int) []int32 {
	keyRows = min(keyRows, key.v.nMain)
	t := s.col.joinTable.Load()
	same := t != nil && t.fkGen == s.v.dictGen && t.key == key.col && t.keyGen == key.v.dictGen
	if same && t.keyRows == keyRows {
		return t.rows
	}
	var keyIDs []int64
	if same && t.complete && t.keyRows <= key.v.nMain {
		keyIDs = make([]int64, len(t.rows))
		for id, row := range t.rows {
			keyIDs[id] = -1
			if row >= 0 {
				keyIDs[id] = int64(key.v.codes.Get(int(row)))
			}
		}
	} else {
		keyIDs = translateCodes(s, key)
	}
	rowOf := key.rowIndexByCode(keyRows)
	nt := &joinTable{fkGen: s.v.dictGen, key: key.col, keyGen: key.v.dictGen, keyRows: keyRows,
		complete: !slices.Contains(rowOf, -1), rows: make([]int32, len(keyIDs))}
	for id, keyID := range keyIDs {
		nt.rows[id] = -1
		if keyID >= 0 {
			nt.rows[id] = rowOf[keyID]
		}
	}
	if nt.complete || !same || !t.complete {
		s.col.joinTable.Store(nt)
	}
	return nt.rows
}

// translateCodes maps every value ID of src's dictionary to the matching
// value ID in dst's dictionary, or -1 when dst does not contain the value.
// It costs src.DictLen() extracts plus as many locates on dst — the standard
// dictionary-translation join of column stores. The walk stays in byte-slice
// space end to end (ForEachValue feeding LocateBytes), so no per-entry
// string is allocated.
func translateCodes(src, dst *Snapshot) []int64 {
	out := make([]int64, src.DictLen())
	src.ForEachValue(func(id uint32, value []byte) bool {
		if did, found := dst.LocateBytes(value); found {
			out[id] = int64(did)
		} else {
			out[id] = -1
		}
		return true
	})
	return out
}

// rowIndexByCode builds an index from value ID to the (single) main-part row
// below limit holding it, or -1. Intended for key columns, where every value
// occurs exactly once; for repeated values the last row wins. It decodes
// the code vector — no dictionary operations.
func (s *Snapshot) rowIndexByCode(limit int) []int32 {
	idx := make([]int32, s.v.dict.Len())
	for i := range idx {
		idx[i] = -1
	}
	for row, code := range gatherMain(s, min(limit, s.v.nMain), nil, NoCode) {
		idx[code] = int32(row)
	}
	return idx
}

// CodeSet is a set of value IDs of one pinned dictionary, one bit per ID
// below DictLen. NoCode, like every ID past DictLen, is in no CodeSet.
type CodeSet []uint64

func newCodeSet(dictLen int) CodeSet { return make(CodeSet, (dictLen+63)/64) }

// Has reports whether id is in the set.
func (c CodeSet) Has(id uint32) bool {
	w := int(id >> 6)
	return w < len(c) && c[w]&(1<<(id&63)) != 0
}

func (c CodeSet) add(id uint32) { c[id>>6] |= 1 << (id & 63) }

// CodeSet returns the set of value IDs whose strings satisfy pred. It is
// one sequential walk of the dictionary (ForEachValue, DictLen extracts):
// pred runs once per distinct value, not once per row — the dictionary's
// second superpower after compression.
func (s *Snapshot) CodeSet(pred func(string) bool) CodeSet {
	set := newCodeSet(s.DictLen())
	s.ForEachValue(func(id uint32, value []byte) bool {
		if pred(string(value)) {
			set.add(id)
		}
		return true
	})
	return set
}

// PrefixSet returns the set of value IDs whose strings start with p. Value
// IDs are in sort order (Definition 1), so a prefix is the ID range
// CodeRange(p, successor(p)): two locates and no extract. A prefix without
// a successor runs to DictLen: all 0xff bytes costs one locate, the empty
// prefix none.
func (s *Snapshot) PrefixSet(p string) CodeSet {
	lo, hi := uint32(0), uint32(s.DictLen())
	if succ, ok := successor(p); ok {
		lo, hi = s.CodeRange(p, succ)
	} else if p != "" {
		lo, _ = s.Locate(p)
	}
	set := newCodeSet(s.DictLen())
	for id := lo; id < hi; id++ {
		set.add(id)
	}
	return set
}

// successor returns the least string greater than every string that starts
// with p: p without its trailing 0xff bytes, last byte incremented. ok is
// false when there is none (p is empty or all 0xff).
func successor(p string) (string, bool) {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0xff {
			return p[:i] + string([]byte{p[i] + 1}), true
		}
	}
	return "", false
}

// ValueSet returns the set of value IDs of those of values the dictionary
// holds — an IN-list at one locate per value.
func (s *Snapshot) ValueSet(values ...string) CodeSet {
	set := newCodeSet(s.DictLen())
	for _, v := range values {
		if id, found := s.Locate(v); found {
			set.add(id)
		}
	}
	return set
}
