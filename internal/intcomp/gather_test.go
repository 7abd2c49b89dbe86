package intcomp

import (
	"fmt"
	"math/rand"
	"testing"

	"strdict/internal/bits"
)

// checkGather runs Gather over [start, start+n) of v into the middle of a
// guarded buffer and compares it with a Get-per-element oracle. The guard
// cells on either side must keep their sentinel: RLE's fixed 8-wide stores
// may run past a run's end, but never past the end of out.
func checkGather[T bits.Code](t *testing.T, what string, v Vector, start, n int, table []T) {
	t.Helper()
	const guard = 9
	sentinel := T(0x5a5a5a5a)
	buf := make([]T, n+2*guard)
	for i := range buf {
		buf[i] = sentinel
	}
	Gather(v, start, table, buf[guard:guard+n])
	for i := range buf {
		want := sentinel
		if j := i - guard; j >= 0 && j < n {
			x := v.Get(start + j)
			if want = T(x); table != nil {
				want = table[x]
			}
		}
		if buf[i] != want {
			t.Fatalf("%s: Gather(%d, %d) cell %d (out[%d]) = %d, want %d", what, start, n, i, i-guard, buf[i], want)
		}
	}
}

// gatherRanges returns [start, n) pairs covering v: the whole vector, every
// range that starts or ends on an element within two of a word, run, frame
// or part boundary of the kinds under test (approximated by every position
// when the vector is short), and random ones.
func gatherRanges(rng *rand.Rand, n int) [][2]int {
	out := [][2]int{{0, n}, {0, 0}, {n, 0}}
	edges := []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 1023, 1024, 1025, n - 9, n - 8, n - 1, n}
	for _, a := range edges {
		for _, b := range edges {
			if 0 <= a && a <= b && b <= n {
				out = append(out, [2]int{a, b - a})
			}
		}
	}
	for i := 0; i < 200 && n > 0; i++ {
		a := rng.Intn(n + 1)
		out = append(out, [2]int{a, rng.Intn(n - a + 1)})
	}
	return out
}

// translation returns a table over the values [0, domain): a scrambled
// int32 per value, so an identity-shaped bug cannot pass.
func translation(rng *rand.Rand, domain int) []int32 {
	table := make([]int32, domain)
	for i := range table {
		table[i] = rng.Int31() - 1<<30
	}
	return table
}

// TestGatherMatchesGet: Gather, with no table (the value IDs) and with a
// translating one (a join map), equals the Get-per-element oracle on
// bit-packed vectors of every width, RLE vectors whose runs are 1, exactly
// 8 and more than 8 long (ranges starting and ending mid-run, in the last
// run, across the runBatch refill), and FOR vectors with constant and
// non-constant frames.
func TestGatherMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	check := func(what string, values []uint64, v Vector) {
		t.Helper()
		var top uint64
		for _, x := range values {
			top = max(top, x)
		}
		for _, r := range gatherRanges(rng, len(values)) {
			checkGather[uint64](t, what+"/nil", v, r[0], r[1], nil)
			checkGather[uint32](t, what+"/nil32", v, r[0], r[1], nil)
			if top < 1<<16 {
				checkGather(t, what+"/table", v, r[0], r[1], translation(rng, int(top)+1))
			}
		}
	}

	for w := uint(1); w <= 64; w++ {
		values := make([]uint64, 300)
		for i := range values {
			values[i] = rng.Uint64() >> (64 - w)
		}
		values[len(values)-1] = ^uint64(0) >> (64 - w) // the width's maximum
		check(fmt.Sprintf("packed w=%d", w), values, PackBits(values))
	}

	// RLE: run lengths cycling through 1, 8, 9, 1, 2, 8, 20 and 3, over
	// more than two runBatch refills of runs.
	var runs []uint64
	for r, lens := 0, []int{1, 8, 9, 1, 2, 8, 20, 3}; r < 3*runBatch+5; r++ {
		x := uint64(rng.Intn(3000))
		for i := 0; i < lens[r%len(lens)]; i++ {
			runs = append(runs, x)
		}
	}
	check("rle", runs, PackRLE(runs))
	check("rle/one run", runs[:1], PackRLE(runs[:1]))

	// FOR: a constant frame, a varying one, another constant one, and a
	// short last frame.
	frames := make([]uint64, 3*forFrameSize+100)
	for i := range frames {
		switch i / forFrameSize {
		case 0:
			frames[i] = 700
		case 2:
			frames[i] = 12
		default:
			frames[i] = 1000 + uint64(rng.Intn(2000))
		}
	}
	check("for", frames, PackFOR(frames))

	for kind, v := range kernelTestVectors(t, runs) {
		check("runs/"+kind, runs, v)
	}
	for kind, v := range kernelTestVectors(t, frames) {
		check("frames/"+kind, frames, v)
	}
}

// FuzzGather drives Gather against the Get oracle on fuzz-chosen values,
// widths, run lengths and ranges, for every vector kind, with no table and
// with a translating one.
func FuzzGather(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint8(0), uint16(0), uint16(8))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 1}, uint8(8), uint8(1), uint16(3), uint16(7))
	f.Add([]byte{255, 1, 255, 1}, uint8(64), uint8(7), uint16(1), uint16(200))
	f.Fuzz(func(t *testing.T, data []byte, widthSeed, runSeed uint8, startSeed, nSeed uint16) {
		width := uint(widthSeed%64) + 1
		var values []uint64
		for i, b := range data {
			x := uint64(b) * 0x0101010101010101 >> (64 - width)
			// runSeed stretches byte i into a run of up to 16 copies.
			for n := 1 + int(runSeed>>(i%8)&1)*int(b%16); n > 0; n-- {
				values = append(values, x)
			}
		}
		if len(values) == 0 {
			return
		}
		n := len(values)
		start := int(startSeed) % (n + 1)
		k := int(nSeed) % (n - start + 1)
		var table []int32
		if width <= 8 {
			table = translation(rand.New(rand.NewSource(int64(runSeed))), 1<<width)
		}
		for kind, v := range kernelTestVectors(t, values) {
			checkGather[uint64](t, kind+"/nil", v, start, k, nil)
			if table != nil {
				checkGather(t, kind+"/table", v, start, k, table)
			}
		}
	})
}
