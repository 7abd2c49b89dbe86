package model

// Section 4.1 states that per-operation constants approximate runtimes as
// robustly as more sophisticated models, and leaves precise modelling as an
// open question. This file makes that claim testable: it implements the
// obvious refinement — locate cost scaling with the binary-search depth
// log2(n) — and measures both models' prediction error across dictionary
// sizes, so the repository can verify (rather than assert) the paper's
// simplification.

import (
	"math"

	"strdict/internal/dict"
)

// RuntimeModelError is one (format, size) observation: the measured cost
// and both models' relative prediction errors.
type RuntimeModelError struct {
	Format     dict.Format
	DictLen    int
	Op         string // "extract" or "locate"
	MeasuredNs float64
	ConstErr   float64 // relative error of the constant model
	ScaledErr  float64 // relative error of the log-depth model
}

// CompareRuntimeModels calibrates both models at refSize on a corpus
// generator and evaluates them at the probe sizes. gen(n) must return a
// sorted unique corpus of about n strings with size-independent content
// statistics.
func CompareRuntimeModels(gen func(n int) []string, refSize int, probeSizes []int, formats []dict.Format) []RuntimeModelError {
	ref := make(map[dict.Format]Costs)
	refStrs := gen(refSize)
	for _, f := range formats {
		_, ref[f] = Measure(f, refStrs, 1)
	}

	var out []RuntimeModelError
	for _, n := range probeSizes {
		strs := gen(n)
		for _, f := range formats {
			_, m := Measure(f, strs, 1)
			// Constant model: the calibrated value, unchanged.
			// Scaled model: locate grows with binary-search depth.
			depthRatio := math.Log2(float64(len(strs))+2) / math.Log2(float64(len(refStrs))+2)
			out = append(out,
				RuntimeModelError{
					Format: f, DictLen: len(strs), Op: "extract", MeasuredNs: m.ExtractNs,
					ConstErr:  relErrF(m.ExtractNs, ref[f].ExtractNs),
					ScaledErr: relErrF(m.ExtractNs, ref[f].ExtractNs), // extract does not depend on n in either model
				},
				RuntimeModelError{
					Format: f, DictLen: len(strs), Op: "locate", MeasuredNs: m.LocateNs,
					ConstErr:  relErrF(m.LocateNs, ref[f].LocateNs),
					ScaledErr: relErrF(m.LocateNs, ref[f].LocateNs*depthRatio),
				},
			)
		}
	}
	return out
}

func relErrF(measured, predicted float64) float64 {
	if measured == 0 {
		return 0
	}
	return math.Abs(measured-predicted) / measured
}
