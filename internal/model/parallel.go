package model

import (
	"sync"

	"strdict/internal/dict"
)

// EstimateEach returns the predicted size of every format in declaration
// order (index == dict.Format). It is the bulk entry point: parallelism > 1
// prices the formats on a worker pool of that size. Formats that share a
// probe train it once — the first worker to ask computes it, the others
// wait on the sample's memo (see probe) — so the result is identical for
// every parallelism.
func EstimateEach(s *Sample, parallelism int) []uint64 {
	formats := dict.AllFormats()
	sizes := make([]uint64, len(formats))
	if parallelism <= 1 {
		for i, f := range formats {
			sizes[i] = EstimateSize(f, s)
		}
		return sizes
	}
	tasks := make(chan int, len(formats))
	for i := range formats {
		tasks <- i
	}
	close(tasks)
	var wg sync.WaitGroup
	for w := 0; w < parallelism && w < len(formats); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tasks {
				sizes[i] = EstimateSize(formats[i], s)
			}
		}()
	}
	wg.Wait()
	return sizes
}
