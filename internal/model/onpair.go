package model

// Size model for the OnPair pair-table format (dict/onpair.go). EstimateSize
// dispatches to it; its default costs are in DefaultCostTable.

import (
	"math"

	"strdict/internal/bits"
	"strdict/internal/dict"
)

// estimateOnPair prices the OnPair layout: the pair table (4 bytes per
// entry), the bit-packed symbol stream, and the packed offsets. The pair
// table is trained on the sample — the same cheap-but-real-training approach
// the Hu-Tucker and Re-Pair models use — so a 100% sample reproduces the
// build exactly; a partial sample scales the symbol count by the known raw
// character ratio and grows the pair table toward its cap, since promotion
// frequencies rise linearly with the data.
func estimateOnPair(s *Sample) uint64 {
	pairs, symbols, symWidth := dict.OnPairStats(s.Strings)
	sampleChars := s.parts(arrayParts).chars

	symsFull := float64(symbols)
	pairsFull := float64(pairs)
	width := float64(symWidth)
	if len(s.Strings) != s.N && sampleChars > 0 {
		scale := float64(s.RawChars) / sampleChars
		symsFull *= scale
		if pairsFull *= scale; pairsFull > dict.OnPairMaxPairs {
			pairsFull = dict.OnPairMaxPairs
		}
		if w := float64(bits.Width(uint64(255 + pairsFull))); w > width {
			width = w
		}
	}

	size := 4*pairsFull +
		math.Ceil(symsFull*width/64)*8 +
		packedBytes(s.N+1, symsFull)
	return uint64(math.Round(size)) + dict.StructOverhead
}
