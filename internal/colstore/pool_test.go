package colstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"strdict/internal/dict"
)

// TestForEachColumnVisitsEachOnce runs the column pool over slices shorter
// than, equal to and longer than its worker count, on a fixed pool of four
// workers and on the GOMAXPROCS one: every index is called exactly once,
// with its own column.
func TestForEachColumnVisitsEachOnce(t *testing.T) {
	const workers = 4
	for _, pool := range []struct {
		name    string
		workers int
	}{{"4 workers", workers}, {"GOMAXPROCS", 0}} {
		n := pool.workers
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		for _, cols := range []int{0, 1, max(n-1, 0), n, n + 1, 100} {
			t.Run(fmt.Sprintf("%s/%d columns", pool.name, cols), func(t *testing.T) {
				in := make([]*StringColumn, cols)
				for i := range in {
					in[i] = NewStringColumn(fmt.Sprint(i), dict.Array)
				}
				calls := make([]atomic.Int32, cols)
				each := func(i int, c *StringColumn) {
					if c != in[i] {
						t.Errorf("index %d called with column %s", i, c.Name())
					}
					calls[i].Add(1)
				}
				if pool.workers == 0 {
					ForEachColumn(in, each)
				} else {
					forEachColumn(in, pool.workers, each)
				}
				for i := range calls {
					if got := calls[i].Load(); got != 1 {
						t.Errorf("index %d called %d times", i, got)
					}
				}
			})
		}
	}
}
