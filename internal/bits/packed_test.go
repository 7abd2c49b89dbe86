package bits

import (
	"math/rand"
	"slices"
	"testing"
)

// TestPackedKernelsEveryWidth holds CountEq, AppendMatchEq and
// AppendMatchRange to a Get-per-entry oracle at every width 1..64, from
// every start in [0, 2k] (k entries per window), over ranges around
// multiples of k that end on the array's last bit, so a window that reads a
// word it does not need runs off the end. The values and probes are the
// field's edges: 0, mask, mask-1, mask>>1, random, and past the mask.
func TestPackedKernelsEveryWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for w := uint(1); w <= 64; w++ {
		mask := fieldMask(w)
		k := int(64 / w)
		edges := []uint64{0, mask, mask - 1, mask >> 1}
		value := func() uint64 {
			if i := rng.Intn(len(edges) + 1); i < len(edges) {
				return edges[i] & mask
			}
			return rng.Uint64() & mask
		}
		probes := append(slices.Clone(edges), rng.Uint64()&mask)
		if w < 64 {
			probes = append(probes, mask+1, mask+1+rng.Uint64()%7)
		}
		for _, n := range []int{0, 1, k - 1, k, k + 1, 2*k - 1, 2 * k, 3*k + 1} {
			for start := 0; start <= 2*k; start++ {
				p := NewPackedArray(start+n, w)
				for i := 0; i < p.Len(); i++ {
					p.Set(i, value())
				}
				checkKernels(t, p, start, n, probes)
			}
		}
	}
}

func checkKernels(t *testing.T, p *PackedArray, start, n int, probes []uint64) {
	t.Helper()
	const base = 1000
	oracle := func(match func(x uint64) bool) []int {
		var rows []int
		for i := start; i < start+n; i++ {
			if match(p.Get(i)) {
				rows = append(rows, base+i)
			}
		}
		return rows
	}
	w := p.Width()
	for _, code := range probes {
		want := oracle(func(x uint64) bool { return x == code })
		if got := p.AppendMatchEq(nil, base, start, n, code); !slices.Equal(got, want) {
			t.Fatalf("w=%d start=%d n=%d: AppendMatchEq(%#x) = %v, want %v", w, start, n, code, got, want)
		}
		if got := p.CountEq(start, n, code); got != len(want) {
			t.Fatalf("w=%d start=%d n=%d: CountEq(%#x) = %d, want %d", w, start, n, code, got, len(want))
		}
		for _, hi := range probes {
			lo := code
			want := oracle(func(x uint64) bool { return lo <= x && x < hi })
			if got := p.AppendMatchRange(nil, base, start, n, lo, hi); !slices.Equal(got, want) {
				t.Fatalf("w=%d start=%d n=%d: AppendMatchRange(%#x, %#x) = %v, want %v", w, start, n, lo, hi, got, want)
			}
		}
	}
}
