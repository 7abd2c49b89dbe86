package intcomp

import (
	"math/rand"
	"testing"
)

// kernelTestVectors builds one vector of every kind over the same logical
// values, so differential tests cover packed, RLE and FOR with identical
// expected output.
func kernelTestVectors(t *testing.T, values []uint64) map[string]Vector {
	t.Helper()
	return map[string]Vector{
		"bits": PackBits(values),
		"rle":  PackRLE(values),
		"for":  PackFOR(values),
		"auto": PackAuto(values),
	}
}

// genValues produces value distributions that steer PackAuto and the frame
// logic into every representation: runs, clusters, uniform noise, and
// width-boundary magnitudes.
func genValues(rng *rand.Rand, n int, shape string) []uint64 {
	values := make([]uint64, n)
	switch shape {
	case "runs":
		var cur uint64
		for i := range values {
			if rng.Intn(7) == 0 {
				cur = uint64(rng.Intn(50))
			}
			values[i] = cur
		}
	case "clustered":
		base := rng.Uint64() >> 20
		for i := range values {
			values[i] = base + uint64(i) + uint64(rng.Intn(16))
		}
	case "uniform":
		for i := range values {
			values[i] = uint64(rng.Intn(1000))
		}
	case "wide":
		for i := range values {
			values[i] = rng.Uint64()
		}
	case "zeros":
		// all zero: width-1 packing, single run
	}
	return values
}

var testShapes = []string{"runs", "clustered", "uniform", "wide", "zeros"}

// testNs includes frame and word boundary sizes.
var testNs = []int{0, 1, 2, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025, 3000}

func TestAppendRangeMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, shape := range testShapes {
		for _, n := range testNs {
			values := genValues(rng, n, shape)
			for kind, v := range kernelTestVectors(t, values) {
				if v.Len() != n {
					t.Fatalf("%s/%s/%d: Len=%d", shape, kind, n, v.Len())
				}
				// Whole vector plus boundary-straddling sub-ranges.
				ranges := [][2]int{{0, n}, {0, 0}, {n, 0}}
				for i := 0; i < 20 && n > 0; i++ {
					s := rng.Intn(n)
					ranges = append(ranges, [2]int{s, rng.Intn(n-s) + 1})
				}
				for _, r := range ranges {
					s, k := r[0], r[1]
					got := v.AppendRange(nil, s, k)
					if len(got) != k {
						t.Fatalf("%s/%s/%d: AppendRange(%d,%d) len=%d", shape, kind, n, s, k, len(got))
					}
					for j, x := range got {
						if want := v.Get(s + j); x != want {
							t.Fatalf("%s/%s/%d: AppendRange(%d,%d)[%d]=%d want %d", shape, kind, n, s, k, j, x, want)
						}
					}
				}
			}
		}
	}
}

func TestAppendRangePreservesPrefix(t *testing.T) {
	values := []uint64{5, 6, 7, 8}
	v := PackBits(values)
	dst := []uint64{99}
	dst = v.AppendRange(dst, 1, 2)
	want := []uint64{99, 6, 7}
	if len(dst) != len(want) {
		t.Fatalf("len=%d want %d", len(dst), len(want))
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d]=%d want %d", i, dst[i], want[i])
		}
	}
}

func TestAppendRangeOutOfBoundsPanics(t *testing.T) {
	v := PackBits([]uint64{1, 2, 3})
	for _, r := range [][2]int{{-1, 1}, {0, 4}, {3, 1}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AppendRange(%d,%d): no panic", r[0], r[1])
				}
			}()
			v.AppendRange(nil, r[0], r[1])
		}()
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestScanKernelsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, shape := range testShapes {
		for _, n := range testNs {
			values := genValues(rng, n, shape)
			for kind, v := range kernelTestVectors(t, values) {
				// Probe values present in the data, absent, zero, and max.
				probes := []uint64{0, ^uint64(0), 12345}
				if n > 0 {
					probes = append(probes, values[rng.Intn(n)], values[0], values[n-1])
				}
				ranges := [][2]int{{0, n}}
				for i := 0; i < 8 && n > 0; i++ {
					s := rng.Intn(n)
					ranges = append(ranges, [2]int{s, rng.Intn(n-s) + 1})
				}
				for _, code := range probes {
					for _, r := range ranges {
						s, k := r[0], r[1]
						want := scanEqScalar(v, code, s, k, nil)
						got := ScanEq(v, code, s, k, nil)
						if !equalInts(got, want) {
							t.Fatalf("%s/%s/%d: ScanEq(%d,%d,%d) = %v want %v", shape, kind, n, code, s, k, got, want)
						}
						if c := CountEq(v, code, s, k); c != len(want) {
							t.Fatalf("%s/%s/%d: CountEq(%d,%d,%d) = %d want %d", shape, kind, n, code, s, k, c, len(want))
						}
						// Range probes around the eq code and random spans.
						los := []uint64{code, code / 2}
						for _, lo := range los {
							hi := lo + 1 + uint64(rng.Intn(64))
							wantR := scanRangeScalar(v, lo, hi, s, k, nil)
							gotR := ScanRange(v, lo, hi, s, k, nil)
							if !equalInts(gotR, wantR) {
								t.Fatalf("%s/%s/%d: ScanRange(%d,%d,%d,%d) = %v want %v", shape, kind, n, lo, hi, s, k, gotR, wantR)
							}
						}
						// Empty interval.
						if got := ScanRange(v, code, code, s, k, nil); len(got) != 0 {
							t.Fatalf("%s/%s/%d: ScanRange empty interval returned %v", shape, kind, n, got)
						}
					}
				}
			}
		}
	}
}

func TestScanEqAppendsToDst(t *testing.T) {
	v := PackBits([]uint64{7, 1, 7})
	dst := []int{-1}
	dst = ScanEq(v, 7, 0, 3, dst)
	if !equalInts(dst, []int{-1, 0, 2}) {
		t.Fatalf("dst = %v", dst)
	}
}

func TestMinMax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range testShapes {
		values := genValues(rng, 2500, shape)
		for kind, v := range kernelTestVectors(t, values) {
			for i := 0; i < 16; i++ {
				s := rng.Intn(len(values))
				n := rng.Intn(len(values)-s) + 1
				min, max := MinMax(v, s, n)
				wantMin, wantMax := values[s], values[s]
				for _, x := range values[s : s+n] {
					if x < wantMin {
						wantMin = x
					}
					if x > wantMax {
						wantMax = x
					}
				}
				if min != wantMin || max != wantMax {
					t.Fatalf("%s/%s: MinMax(%d,%d) = (%d,%d) want (%d,%d)", shape, kind, s, n, min, max, wantMin, wantMax)
				}
			}
		}
	}
}

// TestCountsMatchCountEq: every entry of Counts equals the CountEq kernel
// over the whole vector, and the entries sum to Len, on every vector kind,
// at code widths 1 to 13 and on the empty vector.
func TestCountsMatchCountEq(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, w := range []uint{1, 3, 7, 10, 13} {
		domain := 1 << w
		for _, n := range []int{0, 1, 257, 3000} {
			for _, shape := range []string{"runs", "clustered", "uniform"} {
				values := genValues(rng, n, shape)
				for i := range values {
					values[i] %= uint64(domain)
				}
				for kind, v := range kernelTestVectors(t, values) {
					counts := Counts(v, domain)
					if counts.Len() != domain {
						t.Fatalf("w%d/%d/%s/%s: Counts Len = %d", w, n, shape, kind, counts.Len())
					}
					sum := 0
					for code := range domain {
						got, want := int(counts.Get(code)), CountEq(v, uint64(code), 0, n)
						if got != want {
							t.Fatalf("w%d/%d/%s/%s: Counts[%d] = %d, CountEq %d", w, n, shape, kind, code, got, want)
						}
						sum += got
					}
					if sum != n {
						t.Fatalf("w%d/%d/%s/%s: counts sum to %d, want %d", w, n, shape, kind, sum, n)
					}
				}
			}
		}
	}
}

// TestPackAutoPicksSmallest verifies the single-pass size estimation agrees
// with materializing all three candidates: the chosen vector's footprint
// must equal the minimum of the three, with the historical tie-break order
// (bits, then RLE, then FOR).
func TestPackAutoPicksSmallest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range testShapes {
		for _, n := range testNs {
			values := genValues(rng, n, shape)
			got := PackAuto(values)
			if n == 0 {
				if got.Len() != 0 {
					t.Fatalf("%s/0: Len=%d", shape, got.Len())
				}
				continue
			}
			b, r, f := PackBits(values), PackRLE(values), PackFOR(values)
			want := b
			for _, alt := range []Vector{r, f} {
				if alt.Bytes() < want.Bytes() {
					want = alt
				}
			}
			if got.Bytes() != want.Bytes() {
				t.Fatalf("%s/%d: PackAuto chose %T (%d bytes), build-all chooses %T (%d bytes) [bits=%d rle=%d for=%d]",
					shape, n, got, got.Bytes(), want, want.Bytes(), b.Bytes(), r.Bytes(), f.Bytes())
			}
			for i, x := range values {
				if got.Get(i) != x {
					t.Fatalf("%s/%d: PackAuto Get(%d)=%d want %d", shape, n, i, got.Get(i), x)
				}
			}
		}
	}
}

// scanEqScalar is the per-element Get oracle for ScanEq: the pre-kernel
// read path, which the kernels are differentially tested against.
func scanEqScalar(v Vector, code uint64, start, n int, dst []int) []int {
	return scanScalar(v, start, n, dst, func(x uint64) bool { return x == code })
}

// scanRangeScalar is the per-element Get oracle for ScanRange.
func scanRangeScalar(v Vector, lo, hi uint64, start, n int, dst []int) []int {
	return scanScalar(v, start, n, dst, func(x uint64) bool { return lo <= x && x < hi })
}

func scanScalar(v Vector, start, n int, dst []int, match func(uint64) bool) []int {
	checkVectorRange(v.Len(), start, n)
	for i := start; i < start+n; i++ {
		if match(v.Get(i)) {
			dst = append(dst, i)
		}
	}
	return dst
}

// FuzzScanKernels drives the batch kernels against the scalar oracle on
// fuzz-chosen data, widths, offsets and probe codes. Each byte lands at the
// top of a field of the chosen width, with low bits mixed from the byte and
// the width, so a byte of 128 or more makes PackBits pack at exactly that
// width: every width 1..64 is reachable. Besides the fuzzed code, the
// probes hit the field's edges — a code past the mask, lo == mask, and
// hi == mask+1, the open upper bound of a full dictionary.
func FuzzScanKernels(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(3), uint64(2), uint16(0), uint16(8))
	f.Add([]byte{0, 0, 0, 0}, uint8(64), uint64(0), uint16(1), uint16(2))
	f.Add([]byte{255, 1, 255, 1}, uint8(8), uint64(255), uint16(0), uint16(4))
	f.Add([]byte{200, 7, 7, 130, 9, 255, 0, 128, 64, 200, 200, 3}, uint8(14), uint64(1<<14), uint16(1), uint16(11))
	f.Add([]byte{129, 2, 250, 250, 250, 17, 255, 0, 1}, uint8(32), uint64(3), uint16(2), uint16(7))
	f.Fuzz(func(t *testing.T, data []byte, widthSeed uint8, code uint64, startSeed, nSeed uint16) {
		if len(data) == 0 {
			return
		}
		width := uint(widthSeed%64) + 1
		mask := ^uint64(0) >> (64 - width)
		values := make([]uint64, len(data))
		for i, b := range data {
			top := uint64(b) << 56 >> (64 - width)
			low := (uint64(b) | uint64(width)<<8) * 0x9E3779B97F4A7C15 >> 8 & (mask >> 8)
			values[i] = top | low
		}
		n := len(values)
		start := int(startSeed) % n
		k := int(nSeed) % (n - start + 1)
		type interval struct{ lo, hi uint64 }
		codes := []uint64{code, code & mask, mask, mask + 1, values[n/2]}
		ranges := []interval{{code / 2, code/2 + 17}, {code & mask, mask + 1}, {mask, mask + 1}, {0, mask}, {values[0], values[n-1]}}
		for kind, v := range kernelTestVectors(t, values) {
			got := v.AppendRange(nil, start, k)
			for j, x := range got {
				if want := v.Get(start + j); x != want {
					t.Fatalf("%s: AppendRange(%d,%d)[%d]=%d want %d", kind, start, k, j, x, want)
				}
			}
			for _, c := range codes {
				wantEq := scanEqScalar(v, c, start, k, nil)
				if got := ScanEq(v, c, start, k, nil); !equalInts(got, wantEq) {
					t.Fatalf("%s: ScanEq(%d,%d,%d) = %v want %v", kind, c, start, k, got, wantEq)
				}
				if got := CountEq(v, c, start, k); got != len(wantEq) {
					t.Fatalf("%s: CountEq(%d,%d,%d) = %d want %d", kind, c, start, k, got, len(wantEq))
				}
			}
			for _, r := range ranges {
				wantR := scanRangeScalar(v, r.lo, r.hi, start, k, nil)
				if got := ScanRange(v, r.lo, r.hi, start, k, nil); !equalInts(got, wantR) {
					t.Fatalf("%s: ScanRange(%d,%d,%d,%d) = %v want %v", kind, r.lo, r.hi, start, k, got, wantR)
				}
			}
		}
	})
}
