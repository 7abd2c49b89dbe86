package intcomp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func checkVector(t *testing.T, v Vector, want []uint64) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", v.Len(), len(want))
	}
	for i, w := range want {
		if got := v.Get(i); got != w {
			t.Fatalf("Get(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestPackBits(t *testing.T) {
	vals := []uint64{0, 7, 3, 7, 1, 0}
	checkVector(t, PackBits(vals), vals)
}

func TestPackRLE(t *testing.T) {
	vals := []uint64{5, 5, 5, 2, 2, 9, 9, 9, 9, 1}
	checkVector(t, PackRLE(vals), vals)
}

func TestPackRLESingleRun(t *testing.T) {
	vals := make([]uint64, 1000)
	for i := range vals {
		vals[i] = 42
	}
	v := PackRLE(vals)
	checkVector(t, v, vals)
	if v.Bytes() > 100 {
		t.Fatalf("single-run RLE costs %d bytes", v.Bytes())
	}
}

func TestPackAutoPicksRLEForRuns(t *testing.T) {
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(i / 1000) // 10 long runs
	}
	v := PackAuto(vals)
	if _, ok := v.(rleVector); !ok {
		t.Fatalf("PackAuto chose %T for run-heavy data", v)
	}
	checkVector(t, v, vals)
}

func TestPackAutoPicksBitsForRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]uint64, 10000)
	for i := range vals {
		vals[i] = uint64(rng.Intn(1 << 16))
	}
	v := PackAuto(vals)
	if _, ok := v.(packedVector); !ok {
		t.Fatalf("PackAuto chose %T for random data", v)
	}
	checkVector(t, v, vals)
}

func TestPackAutoEmpty(t *testing.T) {
	v := PackAuto(nil)
	if v.Len() != 0 {
		t.Fatal("non-empty")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		for _, pack := range []func([]uint64) Vector{PackBits, PackRLE, PackAuto} {
			if len(vals) == 0 && &pack == nil {
				continue
			}
			v := pack(vals)
			if len(vals) == 0 {
				if v.Len() != 0 {
					return false
				}
				continue
			}
			for i, w := range vals {
				if v.Get(i) != w {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGet(b *testing.B) {
	vals := make([]uint64, 1<<16)
	for i := range vals {
		vals[i] = uint64(i / 64)
	}
	b.Run("bits", func(b *testing.B) {
		v := PackBits(vals)
		for i := 0; i < b.N; i++ {
			v.Get(i & (1<<16 - 1))
		}
	})
	b.Run("rle", func(b *testing.B) {
		v := PackRLE(vals)
		for i := 0; i < b.N; i++ {
			v.Get(i & (1<<16 - 1))
		}
	})
}

func TestPackFOR(t *testing.T) {
	vals := []uint64{1000, 1001, 1003, 1002, 1010, 5, 6, 7}
	checkVector(t, PackFOR(vals), vals)
}

func TestPackFORConstantFrames(t *testing.T) {
	vals := make([]uint64, 3000)
	for i := range vals {
		vals[i] = 7777
	}
	v := PackFOR(vals)
	checkVector(t, v, vals)
	if v.Bytes() > 300 {
		t.Fatalf("constant FOR costs %d bytes", v.Bytes())
	}
}

func TestPackFORMonotonic(t *testing.T) {
	// A dense ascending sequence: offsets within a 1024-frame need only
	// ~10 bits even though values reach 2^30.
	vals := make([]uint64, 8192)
	for i := range vals {
		vals[i] = 1<<30 + uint64(i)
	}
	v := PackFOR(vals)
	checkVector(t, v, vals)
	packed := PackBits(vals)
	if v.Bytes()*2 > packed.Bytes() {
		t.Fatalf("FOR (%d bytes) should be far below global packing (%d bytes)", v.Bytes(), packed.Bytes())
	}
	if _, ok := PackAuto(vals).(*forVector); !ok {
		t.Fatalf("PackAuto chose %T for monotonic data", PackAuto(vals))
	}
}

func TestPackFORQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return PackFOR(vals).Len() == 0
		}
		v := PackFOR(vals)
		for i, w := range vals {
			if v.Get(i) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
