package model

import (
	"math"

	"strdict/internal/bits"
	"strdict/internal/dict"
	"strdict/internal/huffman"
	"strdict/internal/hutucker"
	"strdict/internal/ngram"
	"strdict/internal/repair"
)

// EstimateSize predicts the Bytes() of dict.Build(f, column) from the
// sample, without building the dictionary. It implements the compression
// models of Section 4.2, extended with the byte-alignment corrections the
// paper mentions, so a 100% sample reproduces the real size (almost)
// exactly.
//
// Unlike "naively compressing a sample and extrapolating", the models only
// gather cheap properties (alphabet width, symbol entropy, n-gram coverage,
// grammar compression rate on the sample, maximum string length, average
// block size) and evaluate closed formulas over them. The properties come
// from probes that train a codec on the sample but stop at its statistics —
// code lengths, gram, rule and pair counts, per-part symbol counts: no
// encoded data is materialized, not even for the sample. (The one exception
// is the LZ78 extension model, which runs the build's parse on the sample
// and counts the tokens it keeps.)
//
// Probes are memoised on the Sample (see probe), so formats that read the
// same one — both Re-Pair widths of a part set, every front-coded format's
// part set — compute it once, whether the caller asks format by format or
// through EstimateEach. Concurrent calls on one Sample are safe.
func EstimateSize(f dict.Format, s *Sample) uint64 {
	// The extensions run their build's training on the sample; the paper's
	// formats share the trait-driven models below.
	switch f {
	case dict.OnPair:
		return probe(s, f, func() uint64 { return estimateOnPair(s) })
	case dict.LZ78:
		return probe(s, f, func() uint64 { return estimateLZ78(s) })
	}
	var size float64
	switch {
	case f == dict.ArrayFixed:
		size = float64(s.N) * maxLen(s.Strings)

	case f == dict.ColumnBC:
		nblocks := blocksOf(s.N, s.ColBlockSize)
		var perString float64
		var blockStrings int
		for _, b := range s.ColBlocks {
			perString += float64(dict.ColumnBCBlockBytes(b))
			blockStrings += len(b)
		}
		if blockStrings > 0 {
			perString /= float64(blockStrings)
		}
		size = perString*float64(s.N) + packedBytes(nblocks+1, perString*float64(s.N))

	case f.IsFrontCoded():
		size = estimateFC(f, s)

	default: // array class
		est := s.schemeEstimate(arrayParts, f.Scheme())
		size = est.data + est.table + packedBytes(s.N+1, est.data)
	}
	return uint64(math.Round(size)) + dict.StructOverhead
}

// EstimateEach returns the predicted size of every format in declaration
// order (index == dict.Format) — the bulk entry point of format selection.
func EstimateEach(s *Sample) []uint64 {
	formats := dict.AllFormats()
	sizes := make([]uint64, len(formats))
	for i, f := range formats {
		sizes[i] = EstimateSize(f, s)
	}
	return sizes
}

// partSetOf names the part set a built-in format's string scheme encodes.
func partSetOf(f dict.Format) partSet {
	switch {
	case f == dict.FCBlockDF:
		return fcFirstParts
	case f.IsFrontCoded():
		return fcParts
	}
	return arrayParts
}

// estimateFC models the three front-coding layouts.
func estimateFC(f dict.Format, s *Sample) float64 {
	nblocks := blocksOf(s.N, s.FCBlockSize)
	est := s.schemeEstimate(partSetOf(f), f.Scheme())

	// Header bytes per the layouts in dict/fc.go.
	var header float64
	switch f {
	case dict.FCBlockDF:
		header = float64(nblocks)*4 + 5*float64(s.N-nblocks)
	default: // fc block X and fc inline both spend one prefix byte per non-first string
		header = float64(s.N - nblocks)
	}
	return est.data + est.table + header + packedBytes(nblocks+1, est.data+header)
}

// schemeEstimate is the output of a string-scheme model: the total encoded
// data bytes for the whole column and the codec table footprint.
type schemeEstimate struct {
	data  float64
	table float64
}

type schemeKey struct {
	ps partSet
	sc dict.Scheme
}

// schemeEstimate is the memoised scheme model of one (part set, scheme):
// every format that encodes that part set with that scheme reads it.
func (s *Sample) schemeEstimate(ps partSet, sc dict.Scheme) schemeEstimate {
	return probe(s, schemeKey{ps, sc}, func() schemeEstimate { return s.estimateScheme(ps, sc) })
}

// trainRepair is the Re-Pair probe; a variable so a test can count its runs.
var trainRepair = repair.TrainStats

type repairKey partSet

// repairCuts is the memoised Re-Pair probe of a part set: one training run
// read at the 12-bit cut ([0]) and at the 16-bit end ([1]).
func (s *Sample) repairCuts(ps partSet) [2]repair.Cut {
	return probe(s, repairKey(ps), func() [2]repair.Cut {
		at12, at16 := trainRepair(s.parts(ps).parts)
		return [2]repair.Cut{at12, at16}
	})
}

// estimateScheme models the encoded size of the column's parts from the
// sampled ones. The codec choice mirrors dict: array dictionaries take the
// order-preserving Hu-Tucker code, front-coded suffixes Huffman.
func (s *Sample) estimateScheme(ps partSet, sc dict.Scheme) schemeEstimate {
	sp := s.parts(ps)
	parts, totalChars, totalN := sp.parts, sp.totalChars, float64(s.N)
	orderPreserving := ps == arrayParts
	// scale maps "bytes on the sample" to "bytes on the column", anchored on
	// the known exact totals.
	scale := 1.0
	if sampleN := float64(len(parts)); sp.chars+sampleN > 0 {
		scale = (totalChars + totalN) / (sp.chars + sampleN)
	}

	switch sc {
	case dict.SchemeNone:
		// One NUL terminator per string.
		return schemeEstimate{data: totalChars + totalN}

	case dict.SchemeBC:
		nchars := distinctChars(parts)
		w := float64(bits.Width(uint64(nchars))) // alphabet + EOS
		var sampleBytes float64
		for _, p := range parts {
			sampleBytes += math.Ceil(float64(len(p)+1) * w / 8)
		}
		return schemeEstimate{
			data:  sampleBytes * scale,
			table: 256*2 + float64(nchars) + 8,
		}

	case dict.SchemeHU:
		// The order-0 symbol entropy is a lower bound that can be off by
		// 20% for Hu-Tucker on skewed alphabets (the alphabetic-order
		// constraint costs extra bits), so the model trains the code on the
		// sample — a cheap O(alphabet^2) step — and evaluates the actual
		// code lengths.
		var sampleBytes, table float64
		if orderPreserving {
			c := hutucker.Train(parts)
			for _, p := range parts {
				bits := c.EOSLen()
				for _, b := range p {
					bits += c.CodeLen(b)
				}
				sampleBytes += math.Ceil(float64(bits) / 8)
			}
			table = float64(c.TableBytes())
		} else {
			c := huffman.Train(parts)
			for _, p := range parts {
				bits := c.CodeLen(huffman.EOS)
				for _, b := range p {
					bits += c.CodeLen(int(b))
				}
				sampleBytes += math.Ceil(float64(bits) / 8)
			}
			table = float64(c.TableBytes())
		}
		return schemeEstimate{data: sampleBytes * scale, table: table}

	case dict.SchemeNG2, dict.SchemeNG3:
		n := 2
		if sc == dict.SchemeNG3 {
			n = 3
		}
		c := ngram.Train(n, parts)
		// Simulate the greedy coder arithmetically: count emitted codes.
		var sampleBytes float64
		for _, p := range parts {
			sampleBytes += math.Ceil(float64(c.CodeCount(p)) * 12 / 8)
		}
		table := float64(c.GramCount()*(n+24)) + 8
		return schemeEstimate{data: sampleBytes * scale, table: table}

	case dict.SchemeRP12, dict.SchemeRP16:
		w, cut := uint(12), s.repairCuts(ps)[0]
		if sc == dict.SchemeRP16 {
			w, cut = 16, s.repairCuts(ps)[1]
		}
		var sampleBytes float64
		for _, n := range cut.SeqLens {
			sampleBytes += math.Ceil(float64(n+1) * float64(w) / 8)
		}
		// Rules found on the sample scale up with the data until the symbol
		// space saturates.
		rules := float64(cut.Rules) * scale
		if cap := float64(repair.MaxRules(w)); rules > cap {
			rules = cap
		}
		return schemeEstimate{data: sampleBytes * scale, table: rules*8 + 8}

	default:
		panic("model: unknown scheme")
	}
}

func distinctChars(parts [][]byte) int {
	var present [256]bool
	for _, p := range parts {
		for _, b := range p {
			present[b] = true
		}
	}
	n := 0
	for _, ok := range present {
		if ok {
			n++
		}
	}
	return n
}

// packedBytes mirrors bits.PackedArray storage: entries of the width needed
// for maxVal, rounded up to whole 64-bit words.
func packedBytes(entries int, maxVal float64) float64 {
	if maxVal < 0 {
		maxVal = 0
	}
	w := float64(bits.Width(uint64(maxVal)))
	return math.Ceil(float64(entries)*w/64) * 8
}

func blocksOf(n, blockSize int) int {
	return (n + blockSize - 1) / blockSize
}

func maxLen(strs []string) float64 {
	m := 0
	for _, s := range strs {
		if len(s) > m {
			m = len(s)
		}
	}
	return float64(m)
}
