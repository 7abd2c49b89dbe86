package colstore

// Query-plan building blocks on value IDs: predicates against constants cost
// one locate, joins translate one dictionary into the other side's code
// space — once per pair of dictionaries, the table is cached on the foreign
// key column — and only final result materialization extracts strings:
// exactly the dictionary access profile the compression manager's time model
// feeds on. They exist on Snapshot only (DESIGN.md, "Value IDs are scoped to a
// Snapshot"); a query gets its snapshots from a View, and reads whole
// columns of value IDs and whole foreign-key joins through the two TableView
// operators below, Codes and Join.

// queryChunk is the batch size of the bulk code-decode loop (mainCodes):
// large enough to amortize the kernel dispatch, small enough to stay in L1.
const queryChunk = 256

// NoCode is the value ID Codes reports for a row that has none: it is no ID
// of any dictionary, so it equals no located constant and is in no CodeSet.
const NoCode = ^uint32(0)

// Codes returns the value ID of a string column at each of the view's
// Rows() rows, batch-decoded from the code vector with no dictionary
// operation. Rows past the column's MainRows are in the delta and have no
// value ID: they read NoCode, never an alias of ID 0.
func (tv *TableView) Codes(name string) []uint32 {
	out := make([]uint32, tv.rows)
	nMain := tv.Str(name).mainCodes(tv.rows, func(start int, codes []uint64) {
		for j, code := range codes {
			out[start+j] = uint32(code)
		}
	})
	for row := nMain; row < len(out); row++ {
		out[row] = NoCode
	}
	return out
}

// Join resolves a foreign key: for each of the view's Rows() rows, the row
// of key whose keyCol holds the same value as this table's fk column, or -1
// when there is none — the value is absent from keyCol's main part, or the
// fk row is in the delta and has no value ID. Key rows are main-part rows
// below key.Rows(); where keyCol repeats a value the last such row wins. It
// costs at most one dictionary translation per (fk dictionary, keyCol
// dictionary) pair — DictLen(fk) extracts on fk and as many locates on
// keyCol, counted on the query that misses the cache — and no dictionary
// operation on a hit.
func (tv *TableView) Join(fk string, key *TableView, keyCol string) []int32 {
	fs, ks := tv.Str(fk), key.Str(keyCol)
	rowByKeyCode := ks.rowIndexByCode(key.rows)
	rowByCode := make([]int32, fs.DictLen()) // fk value ID -> key row
	for code, keyCode := range fs.keyCodes(ks) {
		rowByCode[code] = -1
		if keyCode >= 0 {
			rowByCode[code] = rowByKeyCode[keyCode]
		}
	}
	out := make([]int32, tv.rows)
	nMain := fs.mainCodes(tv.rows, func(start int, codes []uint64) {
		for j, code := range codes {
			out[start+j] = rowByCode[code]
		}
	})
	for row := nMain; row < len(out); row++ {
		out[row] = -1
	}
	return out
}

// mainCodes batch-decodes the value IDs of the main-part rows below limit,
// a chunk at a time: fn sees the IDs of rows start, start+1, ... in codes.
// It returns the number of rows decoded and costs no dictionary operation.
func (s *Snapshot) mainCodes(limit int, fn func(start int, codes []uint64)) int {
	nMain := min(s.v.nMain, limit)
	var buf [queryChunk]uint64
	for row := 0; row < nMain; row += queryChunk {
		fn(row, s.v.codes.AppendRange(buf[:0], row, min(queryChunk, nMain-row)))
	}
	return nMain
}

// joinTable is a cached dictionary translation: codes maps every value ID of
// generation fkGen of the owning column's dictionary to the value ID of the
// same string in generation keyGen of key's dictionary, or -1 — a pure
// function of two immutable dictionaries, neither of which it pins.
type joinTable struct {
	fkGen  uint64
	key    *StringColumn
	keyGen uint64
	codes  []int32
}

// keyCodes returns the translation of s's dictionary into key's: the
// column's cached table when it is for this very pair of dictionaries, else
// a fresh translateCodes that replaces it. The result is shared, read-only.
func (s *Snapshot) keyCodes(key *Snapshot) []int32 {
	t := s.col.joinTable.Load()
	if t != nil && t.fkGen == s.v.dictGen && t.key == key.col && t.keyGen == key.v.dictGen {
		return t.codes
	}
	t = &joinTable{fkGen: s.v.dictGen, key: key.col, keyGen: key.v.dictGen, codes: make([]int32, s.DictLen())}
	for code, keyCode := range translateCodes(s, key) {
		t.codes[code] = int32(keyCode)
	}
	s.col.joinTable.Store(t)
	return t.codes
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
// occurs exactly once; for repeated values the last row wins. It
// batch-decodes the code vector — no dictionary operations.
func (s *Snapshot) rowIndexByCode(limit int) []int32 {
	idx := make([]int32, s.v.dict.Len())
	for i := range idx {
		idx[i] = -1
	}
	s.mainCodes(limit, func(start int, codes []uint64) {
		for j, code := range codes {
			idx[code] = int32(start + j)
		}
	})
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
