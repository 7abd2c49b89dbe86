package strdict_test

import (
	"fmt"
	"math/bits"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

// BenchmarkScanKernels gates the vectorized read path: predicate scans over
// the packed code vector via the batch kernels (SWAR equality and range
// compares) against a scalar baseline that pays one Snapshot.Code call, and
// so one Vector.Get interface call, per row.
//
// Two column shapes:
//   - 8bit: 250 distinct values shuffled evenly — a bit-packed vector of
//     8-bit codes, a width that divides 64.
//   - 15bit: the same with 20,000 distinct values, the size of a service
//     benchmark table: 15-bit codes, four to a kernel window and straddling
//     words.
//
// count/kernel is Snapshot.CountEq, which answers from the main part's
// per-value count table (built by its first call) without a kernel scan.
func BenchmarkScanKernels(b *testing.B) {
	const rows = 1 << 18
	value := func(code int) string { return fmt.Sprintf("val-%05d", code) }
	build := func(order func(i int) int) *colstore.Snapshot {
		col := colstore.NewStringColumn("bench.scan", dict.Array)
		for i := 0; i < rows; i++ {
			col.Append(value(order(i)))
		}
		col.Merge(dict.Array)
		return col.Snapshot()
	}
	// scalarScan appends the main rows whose code lies in [lo, hi); the
	// columns are fully merged, so there is no delta half.
	scalarScan := func(snap *colstore.Snapshot, lo, hi uint32, out []int) []int {
		for row := 0; row < snap.MainRows(); row++ {
			if code, _ := snap.Code(row); lo <= code && code < hi {
				out = append(out, row)
			}
		}
		return out
	}
	var out []int
	for _, distinct := range []int{250, 20000} {
		uniform := build(func(i int) int { return (i * 2654435761) % distinct })
		defer uniform.Release()
		probe := value(distinct / 2)
		loVal, hiVal := value(distinct/2), value(distinct/2+8)
		shape := fmt.Sprintf("%dbit", bits.Len(uint(distinct-1)))
		b.Run(shape+"/eq/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id, _ := uniform.Locate(probe)
				out = scalarScan(uniform, id, id+1, out[:0])
			}
		})
		b.Run(shape+"/eq/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = uniform.ScanEq(probe, out[:0])
			}
		})
		b.Run(shape+"/count/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				id, _ := uniform.Locate(probe)
				_ = len(scalarScan(uniform, id, id+1, out[:0]))
			}
		})
		b.Run(shape+"/count/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = uniform.CountEq(probe)
			}
		})
		b.Run(shape+"/range/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo, hi := uniform.CodeRange(loVal, hiVal)
				out = scalarScan(uniform, lo, hi, out[:0])
			}
		})
		b.Run(shape+"/range/kernel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out = uniform.ScanRange(loVal, hiVal, out[:0])
			}
		})
	}
}
