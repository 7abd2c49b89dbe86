package experiments

// Extended survey: locate and construction times for every variant.
// The paper measures these but defers the tables to the underlying thesis
// ("Due to space constraints ... a more extensive evaluation of the
// dictionary variants can be found in [33]"); this file regenerates them so
// the trade-off picture is complete.

import "io"

// FigureLocate prints the locate-time side of the trade-off on the src data
// set (companion to Figure 3; reported in [33]).
func FigureLocate(w io.Writer, p Params) {
	srcSurvey(w, p, "Extended survey: locate runtime on src", "locate (us)",
		func(r SurveyRow) float64 { return r.LocateNs / 1000 })
}

// FigureConstruct prints the construction-time side of the trade-off on the
// src data set (companion to Figure 3; reported in [33]). Construction time
// matters because the merge interval bounds how much construction cost a
// column can amortize (Section 5.2).
func FigureConstruct(w io.Writer, p Params) {
	srcSurvey(w, p, "Extended survey: construction time on src", "construct (us/str)",
		func(r SurveyRow) float64 { return r.ConstructNs / 1000 })
}
