package colstore

import "strdict/internal/intcomp"

// Zone maps: per-block min/max code summaries over the main part's code
// vector, built once at merge/restore time while the codes are already in
// hand. Because every dictionary format is order-preserving, a string
// predicate translates into a code interval, and a zone whose [min, max]
// does not intersect that interval cannot contain a match — the scan skips
// the whole block without touching the compressed vector. Sealed delta
// segments carry min/max values (their codes are segment-local, so value
// bounds are the comparable summary).

// zoneRows is the number of main rows summarized per zone. Large enough
// that the two-word summary is negligible overhead (16 bytes per 4096
// rows), small enough that clustered columns prune at useful granularity.
const zoneRows = 4096

// zone summarizes main-part rows [start, start+n): the minimum and maximum
// code that occurs in the block.
type zone struct {
	start, n int
	min, max uint64
}

// overlapsEq reports whether the zone may contain code.
func (z zone) overlapsEq(code uint64) bool {
	return code >= z.min && code <= z.max
}

// overlapsRange reports whether the zone may contain a code in [lo, hi).
func (z zone) overlapsRange(lo, hi uint64) bool {
	return hi > z.min && lo <= z.max
}

// buildZones summarizes a main part's codes into zones of zoneRows entries.
func buildZones(codes []uint64) []zone {
	if len(codes) == 0 {
		return nil
	}
	zones := make([]zone, 0, (len(codes)+zoneRows-1)/zoneRows)
	for lo := 0; lo < len(codes); lo += zoneRows {
		hi := lo + zoneRows
		if hi > len(codes) {
			hi = len(codes)
		}
		min, max := codes[lo], codes[lo]
		for _, c := range codes[lo+1 : hi] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		zones = append(zones, zone{start: lo, n: hi - lo, min: min, max: max})
	}
	return zones
}

// zonesOfVector summarizes an already-compressed code vector — the crash
// recovery path, where the plain []uint64 the merge paths summarize for
// free no longer exists.
func zonesOfVector(codes intcomp.Vector) []zone {
	n := codes.Len()
	if n == 0 {
		return nil
	}
	zones := make([]zone, 0, (n+zoneRows-1)/zoneRows)
	for lo := 0; lo < n; lo += zoneRows {
		k := min(zoneRows, n-lo)
		min, max := intcomp.MinMax(codes, lo, k)
		zones = append(zones, zone{start: lo, n: k, min: min, max: max})
	}
	return zones
}

// segValueBounds returns the lexicographic min and max of a sealed
// segment's distinct values. Called once at seal time; vals is non-empty.
func segValueBounds(vals []string) (min, max string) {
	min, max = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
