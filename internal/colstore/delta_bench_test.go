package colstore

import (
	"math/rand"
	"slices"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
)

// BenchmarkDeltaScan times the three predicate scans on a snapshot whose
// rows are all in the captured active prefix: 60k rows, every fifth a value
// no earlier row holds and the rest Zipf(1.2)-drawn from the same 12k-value
// pool (~20 % distinct), the delta a svc-mixed table carries just under the
// 64k merge threshold. Probes are Zipf-drawn too; a range spans 50 distinct
// values of the pool.
func BenchmarkDeltaScan(b *testing.B) {
	const rows, pool = 60_000, 12_000
	vals := datagen.Generate("url", pool, 1)
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, pool-1)
	c := NewStringColumn("t.c", dict.FCBlock)
	for i := 0; i < rows; i++ {
		if i%5 == 0 {
			c.Append(vals[i/5])
		} else {
			c.Append(vals[zipf.Uint64()])
		}
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	probes := make([]string, 256)
	for i := range probes {
		probes[i] = vals[zipf.Uint64()]
	}
	snap := c.Snapshot()
	defer snap.Release()
	var out []int
	b.Run("CountEq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink = snap.CountEq(probes[i%len(probes)])
		}
	})
	b.Run("ScanEq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out = snap.ScanEq(probes[i%len(probes)], out[:0])
		}
	})
	b.Run("ScanRange", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lo := (i * 97) % (pool - 50)
			out = snap.ScanRange(sorted[lo], sorted[lo+50], out[:0])
		}
	})
	benchSink = len(out)
}

var benchSink int
