package model

// Size model for the LZ78 format (dict/lz78.go). EstimateSize dispatches to
// it; its default costs are in DefaultCostTable.

import (
	"math"

	"strdict/internal/bits"
	"strdict/internal/dict"
)

// estimateLZ78 prices the LZ78 layout: the phrase table (4-byte parent plus
// 1-byte char per phrase), the bit-packed token stream (token width is the
// width of the phrase count — the last phrase created is always emitted),
// and the packed offsets. The parse runs on the sample, so a 100% sample
// reproduces the build exactly; a partial sample scales tokens by the known
// raw character ratio with the classic LZ78 log-factor correction
// (tokens ~ chars / log chars: a bigger corpus has longer phrases).
func estimateLZ78(s *Sample) uint64 {
	phrases, tokens := dict.LZ78Stats(s.Strings)
	sampleChars := s.parts(arrayParts).chars

	tokensFull := float64(tokens)
	phrasesFull := float64(phrases)
	if len(s.Strings) != s.N && sampleChars > 1 {
		fullChars := float64(s.RawChars)
		scale := fullChars / sampleChars * math.Log(sampleChars) / math.Log(math.Max(fullChars, 2))
		tokensFull *= scale
		// Almost every token mints a phrase (only end-of-string reuses skip).
		if phrasesFull *= scale; phrasesFull > tokensFull {
			phrasesFull = tokensFull
		}
	}

	size := 5*phrasesFull +
		math.Ceil(tokensFull*float64(bits.Width(uint64(phrasesFull)))/64)*8 +
		packedBytes(s.N+1, tokensFull)
	return uint64(math.Round(size)) + dict.StructOverhead
}
