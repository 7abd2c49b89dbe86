// Package model implements the prediction framework of Section 4: for every
// dictionary format it estimates the size the dictionary would have on a
// given column from a small uniform sample, and it models the runtime of the
// extract, locate and construct operations as per-call constants determined
// by microbenchmarks.
//
// The size models follow the paper's Table 1: they break each format's size
// down to properties of the data (distinct characters, order-0 entropy,
// n-gram coverage, Re-Pair compression rate, maximum string length, average
// block size) that are cheap to sample, extended by the paper-suggested
// corrections for byte-alignment cut-offs so that a 100% "sample" predicts
// the real size almost exactly.
package model

import (
	"fmt"
	"math/rand"
	"sync"

	"strdict/internal/dict"
)

// MinSampleStrings is the sampling floor of Section 4.2.2: tiny dictionaries
// are sampled entirely, fixing the extreme mispredictions the paper reports
// for 1% samples of very small dictionaries.
const MinSampleStrings = 5000

// DefaultSampleRatio is the production sampling ratio of Section 4.2.2: the
// size models see max(1 %, MinSampleStrings) of a dictionary. Off-line
// experiments that sweep the ratio pass their own.
const DefaultSampleRatio = 0.01

// Sample carries everything the size models need about a column. The size
// models memoise what they derive from it (part sets, trained probes) on the
// Sample itself, for as long as it lives: treat a Sample as immutable from
// the first EstimateSize on — later changes are not seen.
type Sample struct {
	// Exact properties, known a priori from the dictionary input.
	N        int    // number of strings
	RawChars uint64 // sum of all string lengths

	// Sampled strings (uniform, without replacement, sorted by position).
	Strings []string

	// Sampled aligned front-coding and column-bc blocks.
	FCBlocks  [][]string
	ColBlocks [][]string

	// Block geometry used when sampling, mirrored from package dict.
	FCBlockSize  int
	ColBlockSize int

	// What the size models have derived from the sample so far; see probe.
	mu     sync.Mutex
	probes map[any]*probeCell
}

// TakeSample draws a uniform sample of about ratio*len(strs) strings, but at
// least min(MinSampleStrings, len(strs)), plus proportionally many aligned
// blocks for the block-based formats. strs must be the sorted dictionary
// input. The same seed yields the same sample.
func TakeSample(strs []string, ratio float64, seed int64) *Sample {
	rng := rand.New(rand.NewSource(seed))
	n := len(strs)
	s := &Sample{
		N:            n,
		RawChars:     dict.RawBytes(strs),
		FCBlockSize:  dict.DefaultFCBlockSize,
		ColBlockSize: dict.DefaultColumnBCBlockSize,
	}

	want := int(ratio * float64(n))
	if want < MinSampleStrings {
		want = MinSampleStrings
	}
	if want >= n {
		s.Strings = strs
	} else {
		s.Strings = make([]string, 0, want)
		for _, idx := range sampleIndices(rng, n, want) {
			s.Strings = append(s.Strings, strs[idx])
		}
	}

	s.FCBlocks = sampleBlocks(rng, strs, s.FCBlockSize, want)
	s.ColBlocks = sampleBlocks(rng, strs, s.ColBlockSize, want)
	return s
}

// sampleIndices draws k distinct indices from [0,n) in ascending order.
func sampleIndices(rng *rand.Rand, n, k int) []int {
	// Floyd's algorithm would avoid the map, but k is small; keep it simple
	// with a selection-sampling pass, which also yields sorted output.
	out := make([]int, 0, k)
	remaining := n
	needed := k
	for i := 0; i < n && needed > 0; i++ {
		if rng.Intn(remaining) < needed {
			out = append(out, i)
			needed--
		}
		remaining--
	}
	return out
}

// sampleBlocks draws aligned blocks totalling about wantStrings strings.
func sampleBlocks(rng *rand.Rand, strs []string, blockSize, wantStrings int) [][]string {
	n := len(strs)
	if n == 0 {
		return nil
	}
	nblocks := (n + blockSize - 1) / blockSize
	wantBlocks := (wantStrings + blockSize - 1) / blockSize
	if wantBlocks < 1 {
		wantBlocks = 1
	}
	var blockIdx []int
	if wantBlocks >= nblocks {
		blockIdx = make([]int, nblocks)
		for i := range blockIdx {
			blockIdx[i] = i
		}
	} else {
		blockIdx = sampleIndices(rng, nblocks, wantBlocks)
	}
	out := make([][]string, 0, len(blockIdx))
	for _, b := range blockIdx {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		out = append(out, strs[lo:hi])
	}
	return out
}

// probe returns the value compute yields for key, computing it on the first
// request for that key on this sample and serving it from the sample
// afterwards. Requests for one key from several goroutines run compute once
// and all wait for it; different keys compute side by side, and a compute
// may itself request other keys.
func probe[T any](s *Sample, key any, compute func() T) T {
	s.mu.Lock()
	if s.probes == nil {
		s.probes = make(map[any]*probeCell)
	}
	c := s.probes[key]
	if c == nil {
		c = new(probeCell)
		s.probes[key] = c
	}
	s.mu.Unlock()
	c.once.Do(func() { c.val = compute() })
	v, ok := c.val.(T)
	if !ok { // compute panicked on an earlier request and spent the cell
		panic(fmt.Sprintf("model: probe %v failed on an earlier request", key))
	}
	return v
}

type probeCell struct {
	once sync.Once
	val  any
}

// partSet names one of the three sets of byte strings the string schemes
// are trained on.
type partSet int

const (
	// arrayParts are the sampled strings themselves.
	arrayParts partSet = iota
	// fcParts are the stored parts of the sampled front-coding blocks in
	// layout order: each block's first string, then every other string's
	// suffix after the prefix shared with its predecessor.
	fcParts
	// fcFirstParts are the same with prefixes taken against the block's
	// first string (fc block df).
	fcFirstParts
)

// sampledParts is a part set with the totals its scheme models scale by.
type sampledParts struct {
	parts      [][]byte
	chars      float64 // characters in parts
	totalChars float64 // characters the whole column holds in this part set
}

// parts returns the memoised part set.
func (s *Sample) parts(ps partSet) *sampledParts {
	return probe(s, ps, func() *sampledParts {
		if ps == arrayParts {
			sp := copyParts(s.Strings)
			sp.totalChars = float64(s.RawChars)
			return sp
		}
		var stored []string
		for _, block := range s.FCBlocks {
			if len(block) == 0 {
				continue
			}
			stored = append(stored, block[0])
			for i := 1; i < len(block); i++ {
				ref := block[i-1]
				if ps == fcFirstParts {
					ref = block[0]
				}
				stored = append(stored, block[i][dict.CommonPrefixLen(ref, block[i]):])
			}
		}
		sp := copyParts(stored)
		// Anchor the front-coded character count per string.
		sp.totalChars = sp.chars
		if len(stored) > 0 {
			sp.totalChars = sp.chars / float64(len(stored)) * float64(s.N)
		}
		return sp
	})
}

// copyParts converts strings to byte slices for codec training, all carved
// out of one buffer.
func copyParts(strs []string) *sampledParts {
	total := 0
	for _, str := range strs {
		total += len(str)
	}
	buf := make([]byte, 0, total)
	parts := make([][]byte, len(strs))
	for i, str := range strs {
		buf = append(buf, str...)
		parts[i] = buf[len(buf)-len(str) : len(buf) : len(buf)]
	}
	return &sampledParts{parts: parts, chars: float64(total)}
}
