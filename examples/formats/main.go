// Formats: survey all dictionary formats on one of the synthetic data
// sets (or a file of your own, one string per line) — size predictions
// from a 1% sample next to the real measurements.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"strdict"
	"strdict/internal/datagen"
)

func main() {
	corpus := flag.String("corpus", "url", "synthetic data set (asc, engl, 1gram, hash, mat, rand1, rand2, src, url)")
	file := flag.String("file", "", "read strings from this file instead (one per line)")
	n := flag.Int("n", 20000, "strings to generate for a synthetic corpus")
	flag.Parse()

	var strs []string
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		seen := make(map[string]bool)
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if !seen[line] && !strings.ContainsRune(line, 0) {
				seen[line] = true
				strs = append(strs, line)
			}
		}
		if err := sc.Err(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		sort.Strings(strs)
	} else {
		strs = datagen.Generate(*corpus, *n, 1)
	}

	fmt.Printf("%d distinct strings, %d raw bytes\n\n", len(strs), rawBytes(strs))
	sample := strdict.TakeSample(strs, 0.01, 1)

	fmt.Printf("%-16s %12s %12s %10s %12s\n",
		"format", "bytes", "predicted", "pred err", "compression")
	for _, f := range strdict.AllFormats() {
		d, err := strdict.Build(f, strs)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		pred := strdict.EstimateSize(f, sample)
		errPct := 100 * (float64(pred) - float64(d.Bytes())) / float64(d.Bytes())
		fmt.Printf("%-16s %12d %12d %9.1f%% %12.2f\n",
			f, d.Bytes(), pred, errPct, strdict.CompressionRate(d, strs))
	}
}

func rawBytes(strs []string) int {
	n := 0
	for _, s := range strs {
		n += len(s)
	}
	return n
}
