package colstore

// Query-plan building blocks on value IDs: predicates against constants cost
// one locate, joins translate one dictionary into the other side's code
// space, and only final result materialization extracts strings — exactly
// the dictionary access profile the compression manager's time model feeds
// on. They exist on Snapshot only (DESIGN.md, "Value IDs are scoped to a
// Snapshot"); a query gets its snapshots from a View.

// queryChunk is the batch size of the bulk code-decode loops below: large
// enough to amortize the kernel dispatch, small enough for a stack buffer.
const queryChunk = 256

// TranslateCodes maps every value ID of src's dictionary to the matching
// value ID in dst's dictionary, or -1 when dst does not contain the value.
// It costs src.DictLen() extracts plus as many locates on dst — the standard
// dictionary-translation join of column stores. The walk stays in byte-slice
// space end to end (ForEachValue feeding LocateBytes), so no per-entry
// string is allocated.
func TranslateCodes(src, dst *Snapshot) []int64 {
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

// RowIndexByCode builds an index from value ID to the (single) main-part row
// holding it. Intended for key columns, where every value occurs exactly
// once; for repeated values the last row wins. It batch-decodes the code
// vector — no dictionary operations.
func (s *Snapshot) RowIndexByCode() []int32 {
	v := s.v
	idx := make([]int32, v.dict.Len())
	for i := range idx {
		idx[i] = -1
	}
	var buf [queryChunk]uint64
	for row := 0; row < v.nMain; {
		k := v.nMain - row
		if k > queryChunk {
			k = queryChunk
		}
		for j, code := range v.codes.AppendRange(buf[:0], row, k) {
			idx[code] = int32(row + j)
		}
		row += k
	}
	return idx
}

// CodeSet returns the set of value IDs whose strings satisfy pred. pred is
// evaluated once per distinct value (DictLen extracts), not once per row —
// the dictionary's second superpower after compression.
func (s *Snapshot) CodeSet(pred func(string) bool) map[uint32]bool {
	out := make(map[uint32]bool)
	var buf []byte
	for id := 0; id < s.DictLen(); id++ {
		buf = s.AppendExtract(buf[:0], uint32(id))
		if pred(string(buf)) {
			out[uint32(id)] = true
		}
	}
	return out
}
