// Root benchmark harness: BenchmarkFigures runs every entry of the figure
// table cmd/figures dispatches through (so `go test -bench=.` regenerates
// every result, printing each table once), plus ablation benchmarks for the
// design decisions called out in DESIGN.md, which report per-op costs.
package strdict_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"strdict"

	"strdict/internal/bitcomp"
	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/experiments"
	"strdict/internal/model"
	"strdict/internal/tpch"
)

// figureWriter prints a figure's table once per process, keeping -bench
// output readable across b.N calibration runs.
var figurePrinted sync.Map

func figureWriter(name string) io.Writer {
	if _, loaded := figurePrinted.LoadOrStore(name, true); loaded {
		return io.Discard
	}
	return os.Stdout
}

// BenchmarkFigures regenerates every entry of the figure table — the one
// cmd/figures dispatches through — at small sizes.
func BenchmarkFigures(b *testing.B) {
	p := experiments.Params{
		N:    4000,
		Seed: 1,
		C:    0.5,
		TPCH: experiments.TPCHConfig{
			ScaleFactor: 0.01,
			Seed:        1,
			TraceReps:   1,
			MeasureReps: 1,
			CValues:     experiments.LogRange(1e-3, 10, 5),
			SampleRatio: 0.05,
		},
	}
	for _, fig := range experiments.Figures {
		b.Run(fig.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fig.Run(figureWriter(fig.Name), p)
			}
		})
	}
}

// BenchmarkParallelMerge measures the concurrent merge pipeline end to end:
// a store of eight delta-heavy columns over different string distributions
// is flushed through the merge scheduler, whose chooser runs the manager's
// full 18-format evaluation per column (the Re-Pair probes being the long
// pole). workers=1 is the serial baseline; the parallel variant fans columns
// across the scheduler pool. The resulting per-column formats and dictionary
// bytes are verified identical across worker counts once, before timing, so
// the speedup is measured on provably equivalent work.
func BenchmarkParallelMerge(b *testing.B) {
	const rowsPerCol = 6000
	distributions := []string{"url", "src", "engl", "mat", "asc", "1gram", "hash", "rand1"}
	colRows := make([][]string, len(distributions))
	for i, name := range distributions {
		uniq := datagen.Generate(name, 3000, int64(i+1))
		rows := make([]string, rowsPerCol)
		for j := range rows {
			rows[j] = uniq[(j*2654435761+i*7919)%len(uniq)]
		}
		colRows[i] = rows
	}

	// setup returns a store whose columns hold all rows in the delta, plus a
	// scheduler configured for the given worker count; Flush is the timed
	// unit of work.
	setup := func(workers int) (*strdict.Store, *strdict.MergeScheduler) {
		store := strdict.NewStore()
		tbl := store.AddTable("bench")
		for i := range colRows {
			col := tbl.AddString(fmt.Sprintf("col%d", i), strdict.FCInline)
			for _, v := range colRows[i] {
				col.Append(v)
			}
		}
		mgr := strdict.NewManager(strdict.ManagerOptions{DesiredFreeBytes: 1 << 30})
		sched := strdict.NewMergeScheduler(store, 1)
		sched.Parallelism = workers
		sched.Chooser = func(snap *strdict.Snapshot, lifetimeNs float64) strdict.Format {
			return mgr.ChooseFormat(strdict.ColumnStatsOfSnapshot(snap, lifetimeNs, 1.0, 1)).Format
		}
		return store, sched
	}

	// On a multi-core machine the parallel variant uses every core; on a
	// smaller one it still drives at least four workers so the pooled code
	// path is what gets measured.
	parWorkers := runtime.GOMAXPROCS(0)
	if parWorkers < 4 {
		parWorkers = 4
	}

	serialStore, serialSched := setup(1)
	serialSched.Flush()
	parStore, parSched := setup(parWorkers)
	parSched.Flush()
	sCols, pCols := serialStore.StringColumns(), parStore.StringColumns()
	for i := range sCols {
		if sCols[i].Format() != pCols[i].Format() ||
			sCols[i].DictBytes() != pCols[i].DictBytes() ||
			sCols[i].VectorBytes() != pCols[i].VectorBytes() {
			b.Fatalf("column %s diverged: serial %v/%d/%d, parallel %v/%d/%d",
				sCols[i].Name(),
				sCols[i].Format(), sCols[i].DictBytes(), sCols[i].VectorBytes(),
				pCols[i].Format(), pCols[i].DictBytes(), pCols[i].VectorBytes())
		}
	}

	for _, workers := range []int{1, parWorkers} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				_, sched := setup(workers)
				b.StartTimer()
				sched.Flush()
			}
		})
	}
}

// BenchmarkSnapshotScan measures the versioned read path against the
// pre-refactor design on two op classes: value point reads (AppendGet —
// dictionary extract per row) and code reads (Code — the scan inner-loop
// access ScanEq makes per row). Value reads compare the lock-free live
// column (one atomic version load per call) and a pinned Snapshot, code
// reads the pinned Snapshot (the only place value IDs live), each against
// an RWMutex-wrapped baseline reproducing the old lock-per-call column. The code reads are the headline: the op is a few
// nanoseconds of bit-unpacking, so the RLock/RUnlock pair the old design
// paid per call is several times the work itself. The working set is
// deliberately cache-resident: with a memory-latency-bound column every
// variant converges on DRAM latency and the synchronization difference
// disappears into noise.
func BenchmarkSnapshotScan(b *testing.B) {
	const rows = 4096
	uniq := datagen.Generate("engl", 512, 1)
	col := strdict.NewStore().AddTable("bench").AddString("c", strdict.Array)
	for i := 0; i < rows; i++ {
		col.Append(uniq[(i*2654435761)%len(uniq)])
	}
	col.Merge(strdict.Array) // cheap format: access cost ~ lock cost

	// AppendGet into a reusable buffer keeps every variant allocation-free,
	// so the measured difference is synchronization, not the allocator. The
	// RWMutex baseline emulates the old StringColumn: every read takes the
	// column lock around the same underlying dictionary access. Snapshots
	// are single-goroutine query handles (their trace counters are plain
	// fields), so each variant constructs its reader per goroutine — the
	// mk() factory runs once per RunParallel worker.
	var mu sync.RWMutex
	locked := func(dst []byte, i int) []byte {
		mu.RLock()
		defer mu.RUnlock()
		return col.AppendGet(dst, i)
	}

	readers := []struct {
		name string
		mk   func() func(dst []byte, i int) []byte
	}{
		{"lockfree-column", func() func([]byte, int) []byte { return col.AppendGet }},
		{"snapshot", func() func([]byte, int) []byte { return col.Snapshot().AppendGet }},
		{"rwmutex", func() func([]byte, int) []byte { return locked }},
	}
	// rows is a power of two: i*K & (rows-1) with odd K permutes the row
	// space without the integer division a modulo would add to every op.
	for _, r := range readers {
		b.Run("value/"+r.name+"/serial", func(b *testing.B) {
			b.ReportAllocs()
			get := r.mk()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = get(buf[:0], (i*2654435761)&(rows-1))
			}
		})
		b.Run("value/"+r.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				get := r.mk()
				var buf []byte
				i := 0
				for pb.Next() {
					buf = get(buf[:0], (i*2654435761)&(rows-1))
					i++
				}
			})
		})
	}

	// Code reads are the scan inner loop: ScanEq and the TPC-H plans
	// evaluate predicates directly on value IDs, one tiny vector access per
	// row. This is where a per-call mutex hurts most —
	// the lock is several times the op itself.
	snap := col.Snapshot()
	lockedCode := func(i int) uint32 {
		mu.RLock()
		defer mu.RUnlock()
		code, _ := snap.Code(i)
		return code
	}
	freeCode := func(i int) uint32 {
		code, _ := snap.Code(i)
		return code
	}
	codeReaders := []struct {
		name string
		get  func(i int) uint32
	}{
		{"snapshot", freeCode},
		{"rwmutex", lockedCode},
	}
	for _, r := range codeReaders {
		b.Run("code/"+r.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = r.get((i * 2654435761) & (rows - 1))
			}
		})
		b.Run("code/"+r.name+"/parallel", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					_ = r.get((i * 2654435761) & (rows - 1))
					i++
				}
			})
		})
	}
}

// BenchmarkPartialMergePolicy compares the daemon's partial-fold policy
// against the always-full-merge baseline on a hot append stream with a
// bounded value domain (the workload the policy exists for: after warm-up
// every fold is an identity fold that reuses the dictionary and re-packs
// the code vector). Each iteration is one Append against a live daemon;
// two extra metrics are reported per variant: rewritten-rows/merge (rows
// re-encoded per merge) and stall-p99-ns (99th-percentile Append
// latency). The identity-fold rewrite count is asserted in
// internal/colstore/partial_test.go; end to end it is
// colstore.rows_rewritten_per_row_folded in the bench/ harness.
func BenchmarkPartialMergePolicy(b *testing.B) {
	const domain = 2000
	vals := make([]string, domain)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%06d", i)
	}
	run := func(b *testing.B, partial bool) {
		store := strdict.NewStore()
		col := store.AddTable("bench").AddString("c", strdict.FCInline)
		sched := strdict.NewMergeScheduler(store, 4000)
		sched.Interval = time.Millisecond
		sched.PartialMerges = partial
		sched.Start(context.Background())

		lat := make([]time.Duration, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			col.Append(vals[i%domain])
			lat[i] = time.Since(t0)
		}
		b.StopTimer()
		if err := sched.Close(); err != nil {
			b.Fatal(err)
		}
		st := sched.ColumnMergeStats("bench.c")
		if merges := st.Full + st.Partial; merges > 0 {
			b.ReportMetric(float64(st.RowsRewritten)/float64(merges), "rewritten-rows/merge")
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[min(len(lat)*99/100, len(lat)-1)]
		b.ReportMetric(float64(p99), "stall-p99-ns")
	}
	b.Run("full", func(b *testing.B) { run(b, false) })
	b.Run("partial", func(b *testing.B) { run(b, true) })
}

// --- ablations ---

// BenchmarkAblationFCBlockSize quantifies the front-coding block-size
// trade-off: bigger blocks compress better but walk longer on extract.
func BenchmarkAblationFCBlockSize(b *testing.B) {
	strs := datagen.Generate("url", 20000, 1)
	for _, bs := range []int{4, 8, 16, 32, 64} {
		d, err := dict.BuildWithFCBlockSize(dict.FCBlock, strs, bs)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("block=%d", bs), func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf = d.AppendExtract(buf[:0], uint32(i*2654435761)%uint32(d.Len()))
			}
			b.ReportMetric(float64(d.Bytes()), "dict-bytes")
		})
	}
}

// BenchmarkAblationLocateEncoded compares the encoded-domain locate fast
// path of order-preserving array schemes against the generic
// extract-and-compare binary search on the same dictionary.
func BenchmarkAblationLocateEncoded(b *testing.B) {
	strs := datagen.Generate("mat", 20000, 1)
	for _, f := range []dict.Format{dict.Array, dict.ArrayBC, dict.ArrayHU} {
		d := dict.BuildUnchecked(f, strs)
		b.Run(f.String()+"/encoded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.Locate(strs[(i*2654435761)%len(strs)])
			}
		})
		b.Run(f.String()+"/generic", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dict.GenericLocate(d, strs[(i*2654435761)%len(strs)])
			}
		})
	}
}

// BenchmarkAblationEOSvsLength compares self-delimiting (EOS-terminated)
// decoding against decoding with an externally stored length, plus the
// space the EOS symbol costs. The EOS design wins on space for short
// strings (one code ≤ 1 byte vs a 2-byte length) at a tiny decode cost.
func BenchmarkAblationEOSvsLength(b *testing.B) {
	strs := datagen.Generate("asc", 10000, 1)
	parts := make([][]byte, len(strs))
	for i, s := range strs {
		parts[i] = []byte(s)
	}
	c := bitcomp.Train(parts)
	enc := c.Encode(nil, parts[0])
	n := len(parts[0])

	b.Run("decode-eos", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = c.Decode(buf[:0], enc)
		}
	})
	b.Run("decode-length", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = c.DecodeN(buf[:0], enc, n)
		}
	})
	// Space accounting: EOS costs width bits per string; an external length
	// would cost 16 bits per string.
	eosBits := float64(c.Width())
	b.Run("space", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = eosBits
		}
		b.ReportMetric(eosBits, "eos-bits/string")
		b.ReportMetric(16, "len-bits/string")
	})
}

// BenchmarkAblationSampleRatio shows estimation cost scaling with the
// sampling ratio — the knob Figure 6 sweeps.
func BenchmarkAblationSampleRatio(b *testing.B) {
	strs := datagen.Generate("1gram", 60000, 1)
	for _, ratio := range []float64{0.01, 0.1, 1.0} {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				model.EstimateEach(model.TakeSample(strs, ratio, int64(i)))
			}
		})
	}
}

// BenchmarkBaselineHash reproduces the paper's Section 3.2 comparison that
// led to hashing being excluded from the survey: locate is fast, but the
// hash table's space overhead loses to even the plain array, and extract
// gains nothing.
func BenchmarkBaselineHash(b *testing.B) {
	strs := datagen.Generate("engl", 20000, 1)
	h, err := dict.BuildHash(strs)
	if err != nil {
		b.Fatal(err)
	}
	a := dict.BuildUnchecked(dict.Array, strs)

	b.Run("hash/locate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Locate(strs[(i*2654435761)%len(strs)])
		}
		b.ReportMetric(float64(h.Bytes()), "dict-bytes")
	})
	b.Run("array/locate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.Locate(strs[(i*2654435761)%len(strs)])
		}
		b.ReportMetric(float64(a.Bytes()), "dict-bytes")
	})
	b.Run("hash/extract", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = h.AppendExtract(buf[:0], uint32(i*2654435761)%uint32(h.Len()))
		}
	})
	b.Run("array/extract", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = a.AppendExtract(buf[:0], uint32(i*2654435761)%uint32(a.Len()))
		}
	})
}

// tpchStringCorpus loads a small TPC-H instance and returns one string
// column's sorted distinct values — a dictionary-build corpus in the
// paper's modified (string-key) schema.
func tpchStringCorpus(table, column string, n int) []string {
	s := tpch.Load(tpch.Config{ScaleFactor: 0.01, Seed: 1, InitialFormat: dict.Array})
	c := s.Table(table).Str(column)
	seen := make(map[string]bool)
	for i := 0; i < c.Len(); i++ {
		seen[c.Get(i)] = true
	}
	strs := make([]string, 0, len(seen))
	for v := range seen {
		strs = append(strs, v)
	}
	sort.Strings(strs)
	if len(strs) > n {
		strs = strs[:n]
	}
	return strs
}

// BenchmarkNewFormats measures the onpair and lz78 extension formats
// against the survey's strongest general-purpose compressors (array rp 16,
// fc block rp 16) on synthetic and TPC-H corpora. Each
// sub-benchmark reports the compression rate (compressed bytes / raw bytes)
// alongside extract and locate per-op costs.
func BenchmarkNewFormats(b *testing.B) {
	corpora := []struct {
		name string
		strs []string
	}{
		{"src", datagen.Generate("src", 10000, 1)},
		{"url", datagen.Generate("url", 10000, 1)},
		{"tpch_p_comment", tpchStringCorpus("part", "p_comment", 10000)},
		{"tpch_o_orderkey", tpchStringCorpus("orders", "o_orderkey", 10000)},
	}
	formats := []dict.Format{dict.OnPair, dict.LZ78, dict.ArrayRP16, dict.FCBlockRP16}
	for _, c := range corpora {
		var raw uint64
		for _, s := range c.strs {
			raw += uint64(len(s))
		}
		for _, f := range formats {
			d := dict.BuildUnchecked(f, c.strs)
			rate := float64(d.Bytes()) / float64(raw)
			fname := strings.ReplaceAll(f.String(), " ", "_")
			b.Run(c.name+"/"+fname+"/extract", func(b *testing.B) {
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = d.AppendExtract(buf[:0], uint32(i*2654435761)%uint32(d.Len()))
				}
				b.ReportMetric(rate, "rate")
			})
			b.Run(c.name+"/"+fname+"/locate", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					d.Locate(c.strs[(i*2654435761)%len(c.strs)])
				}
				b.ReportMetric(rate, "rate")
			})
		}
	}
}
