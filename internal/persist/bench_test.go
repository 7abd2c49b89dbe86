package persist

// Durability benchmarks (the gated numbers — persist.wal_bytes_per_user_byte,
// persist.recover_ms, persist.checkpoint_bytes, persist.parts_written — are
// per-layer metrics of the bench/ harness; these isolate one layer):
//
//   - BenchmarkAppendDurability compares a plain in-memory column append
//     with the same append journaled to the WAL (group commit, and the
//     worst-case fsync-every-append mode).
//   - BenchmarkRecovery measures Open on a prepared directory, both
//     replay-heavy (all rows in the WAL) and checkpoint-heavy (all rows in
//     part files) — the two recovery extremes.
//
// BenchmarkIncrementalCheckpoint measures bytes written per checkpoint on a
// 16-column store with everything dirty vs one column dirty; the >= 4x byte
// reduction is asserted by TestIncrementalCheckpointWritesOnlyDirtyColumns.

import (
	"fmt"
	"os"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/dict"
)

func benchValues(n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("value-%07d", i%977)
	}
	return vals
}

func BenchmarkAppendDurability(b *testing.B) {
	vals := benchValues(1 << 12)

	b.Run("inmemory", func(b *testing.B) {
		s := colstore.NewStore()
		c := s.AddTable("t").AddString("s", dict.Array)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Append(vals[i&(len(vals)-1)])
		}
	})

	b.Run("wal", func(b *testing.B) {
		s, err := Open(b.TempDir(), Options{})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := s.AddTable("t").AddString("s", dict.Array)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Append(vals[i&(len(vals)-1)])
		}
		b.StopTimer()
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
	})

	b.Run("walsync", func(b *testing.B) {
		s, err := Open(b.TempDir(), Options{FsyncInterval: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		c := s.AddTable("t").AddString("s", dict.Array)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Append(vals[i&(len(vals)-1)])
		}
	})
}

// benchDir prepares a directory holding rows string rows; checkpointed
// selects whether they sit in part files (merged + checkpointed) or purely
// in the WAL.
func benchDir(b *testing.B, rows int, checkpointed bool) string {
	b.Helper()
	dir := b.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		b.Fatal(err)
	}
	c := s.AddTable("t").AddString("s", dict.Array)
	vals := benchValues(1 << 12)
	for i := 0; i < rows; i++ {
		c.Append(vals[i&(len(vals)-1)])
	}
	if checkpointed {
		c.Merge(dict.FCBlock)
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

func BenchmarkRecovery(b *testing.B) {
	const rows = 200_000
	for _, mode := range []string{"replay", "checkpoint"} {
		b.Run(mode, func(b *testing.B) {
			dir := benchDir(b, rows, mode == "checkpoint")
			var bytes int64
			if entries, err := os.ReadDir(dir); err == nil {
				for _, e := range entries {
					if fi, err := e.Info(); err == nil {
						bytes += fi.Size()
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := Open(dir, Options{})
				if err != nil {
					b.Fatal(err)
				}
				if got := s.Table("t").Str("s").Len(); got != rows {
					b.Fatalf("recovered %d rows, want %d", got, rows)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(float64(bytes)*float64(b.N)/b.Elapsed().Seconds()/(1<<20), "MB/s")
		})
	}
}

// BenchmarkIncrementalCheckpoint checkpoints a 16-column store repeatedly:
// "full" dirties every column before each checkpoint (the pre-incremental
// behavior, where every checkpoint rewrites every part), "1of16" dirties a
// single column, so the checkpoint rewrites one part and re-references the
// other fifteen. The headline metric is bytes written per checkpoint (part
// files plus the manifest).
func BenchmarkIncrementalCheckpoint(b *testing.B) {
	const (
		ncols = 16
		rows  = 10_000
	)
	for _, mode := range []struct {
		name  string
		dirty int
	}{{"full", ncols}, {"1of16", 1}} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := Open(b.TempDir(), Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			tb := s.AddTable("t")
			cols := make([]*colstore.Int64Column, ncols)
			for i := range cols {
				cols[i] = tb.AddInt64(fmt.Sprintf("c%02d", i))
			}
			for r := 0; r < rows; r++ {
				for _, c := range cols {
					c.Append(int64(r))
				}
			}
			if err := s.Checkpoint(); err != nil {
				b.Fatal(err)
			}
			var bytes, parts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := 0; k < mode.dirty; k++ {
					cols[k].Append(int64(i))
				}
				if err := s.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				st := s.LastCheckpoint()
				bytes += st.PartBytes + st.ManifestBytes
				parts += uint64(st.PartsWritten)
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "bytes/op")
			b.ReportMetric(float64(parts)/float64(b.N), "parts/op")
		})
	}
}
