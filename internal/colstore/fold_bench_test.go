package colstore

import (
	"math/rand"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
)

// BenchmarkFold times one full merge's fold alone (Merge's fold: every code
// rewritten, the dictionary rebuilt in fc inline), republishing the same
// pre-fold version before every iteration. "first" is a first merge of 120k
// rows over ~100k distinct values, the size of TPC-H sf 0.02's l_comment at
// load; "small" folds 1k rows, a tenth of them new values spread through the
// ID space, into a 60k-value main part, the size of a daemon merge under
// ingest.
func BenchmarkFold(b *testing.B) {
	vals := datagen.Generate("url", 100_000, 1)
	rng := rand.New(rand.NewSource(1))

	first := NewStringColumn("first", dict.FCInline)
	for i := 0; i < 120_000; i++ {
		first.Append(vals[rng.Intn(len(vals))])
	}

	small := NewStringColumn("small", dict.FCInline)
	for i := 0; i < 75_000; i++ {
		if i%5 != 0 {
			small.Append(vals[i])
		}
	}
	small.Merge(dict.FCInline)
	for i := 0; i < 1000; i++ {
		k := rng.Intn(75_000)
		switch {
		case i%10 == 0:
			k -= k % 5 // not in the main part
		case k%5 == 0:
			k++
		}
		small.Append(vals[k])
	}

	for _, bc := range []struct {
		name string
		c    *StringColumn
	}{{"first", first}, {"small", small}} {
		v := bc.c.sealActive()
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.c.version.Store(v)
				bc.c.fold(v, len(v.sealed), dict.FCInline, true)
			}
		})
	}
}
