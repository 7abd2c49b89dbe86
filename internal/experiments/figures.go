package experiments

import (
	"fmt"
	"io"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/model"
)

// Params are the settings of one figure run; each figure reads the ones it
// needs. N and Seed size the synthetic corpora, C is the trade-off of
// Figure 9 and the strategy ablation, TPCH configures the end-to-end
// figures.
type Params struct {
	N    int
	Seed int64
	C    float64
	TPCH TPCHConfig
}

// Figure is one entry of the figure table.
type Figure struct {
	Name string // what -figure selects it by
	Doc  string
	Run  func(w io.Writer, p Params)
}

// Figures is every regenerable figure, ablation and survey: the paper's
// figures in order, then the work it defers to [33] and the calibration of
// Section 4.1. cmd/figures and the root benchmark dispatch through it; each
// end-to-end entry loads and traces its own TPC-H store.
var Figures = []Figure{
	{"1-2", "dictionary sizes and memory per synthetic system catalog", Figures1And2},
	{"3", "compression rate vs extract runtime of every variant on src", Figure3},
	{"4", "best compression rate per data set", Figure4},
	{"5", "fastest extract runtime per data set", Figure5},
	{"6", "size-prediction error per sampling ratio", Figure6},
	{"9", "selection-strategy illustration on src at -c", Figure9},
	{"10", "TPC-H space/time trade-off and the fc block headline", onTPCH(func(w io.Writer, e *TPCHExperiment) { Figure10(w, e) })},
	{"11", "TPC-H formats the manager selects per c", onTPCH(func(w io.Writer, e *TPCHExperiment) { Figure11(w, e) })},
	{"both", "figures 10 and 11 on one shared trace", onTPCH(func(w io.Writer, e *TPCHExperiment) {
		Figure10(w, e)
		fmt.Fprintln(w)
		Figure11(w, e)
	})},
	{"strategies", "const vs rel vs tilt on TPC-H at -c", func(w io.Writer, p Params) {
		StrategyComparison(w, NewTPCHExperiment(p.TPCH), p.C)
	}},
	{"workload", "traced per-column dictionary operation counts", onTPCH(TraceAndReport)},
	{"locate", "locate runtime of every variant on src (from [33])", FigureLocate},
	{"construct", "construction time of every variant on src (from [33])", FigureConstruct},
	{"calibrate", "re-measure the runtime-constant table (Section 4.1)", FigureCalibrate},
}

// FigureNamed looks a figure up in the table.
func FigureNamed(name string) (Figure, bool) {
	for _, f := range Figures {
		if f.Name == name {
			return f, true
		}
	}
	return Figure{}, false
}

// onTPCH runs an end-to-end figure on a freshly loaded and traced store.
func onTPCH(fig func(io.Writer, *TPCHExperiment)) func(io.Writer, Params) {
	return func(w io.Writer, p Params) { fig(w, NewTPCHExperiment(p.TPCH)) }
}

// FigureCalibrate re-measures the runtime constants the way
// model.DefaultCostTable's values were obtained: model.Calibrate over 4000
// strings each of engl, mat and url.
func FigureCalibrate(w io.Writer, p Params) {
	var corpora [][]string
	for _, name := range []string{"engl", "mat", "url"} {
		corpora = append(corpora, datagen.Generate(name, 4000, p.Seed))
	}
	table := model.Calibrate(corpora)
	fmt.Fprintln(w, "runtime constants (ns): extract, locate, construct/string")
	for _, f := range dict.AllFormats() {
		c := table.Of(f)
		fmt.Fprintf(w, "%-16s %10.1f %10.1f %10.1f\n", f, c.ExtractNs, c.LocateNs, c.ConstructNs)
	}
}
