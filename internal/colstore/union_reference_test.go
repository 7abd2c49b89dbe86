package colstore

// The union and remap helpers fold used before unionRemap, kept verbatim as
// the reference implementation: one sort over the segments' values, a merge
// with the old values, and a binary search per value for every remap table
// (TestUnionRemapMatchesReference, FuzzUnionRemap).

import "sort"

// distinctSegmentValues returns the sorted distinct values across the given
// sealed segments. Values may repeat between segments; dedupe after sorting.
func distinctSegmentValues(segs []*deltaSegment) []string {
	var vals []string
	for _, seg := range segs {
		vals = append(vals, seg.vals...)
	}
	sort.Strings(vals)
	return dedupeSorted(vals)
}

// unionSorted merges two sorted unique slices into their sorted union.
func unionSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b):
			out = append(out, a[i])
			i++
		case i >= len(a):
			out = append(out, b[j])
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// remapSorted maps each value (all present in merged) to its ID in the
// merged sorted value set.
func remapSorted(vals, merged []string) []uint64 {
	out := make([]uint64, len(vals))
	for i, val := range vals {
		out[i] = uint64(sort.SearchStrings(merged, val))
	}
	return out
}

// dedupeSorted removes adjacent duplicates from a sorted slice in place.
func dedupeSorted(s []string) []string {
	out := s[:0]
	for _, v := range s {
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
