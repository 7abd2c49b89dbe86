package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestFiguresGolden pins the figures that time nothing and so print the same
// bytes on every run for a given (n, seed): Figures 1-2, 4, 6 and 9, each
// rendered through the figure table. testdata/figures.golden is each
// figure's stdout at -seed 1 -n 1000 -c 0.5 after a "== <name>" line. It
// was recorded before the table existed; never regenerate it to make this
// test pass — its value is that the table's code did not write it.
func TestFiguresGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"1-2", "4", "6", "9"} {
		fig, ok := FigureNamed(name)
		if !ok {
			t.Fatalf("figure %q missing from the table", name)
		}
		buf.WriteString("== " + name + "\n")
		fig.Run(&buf, Params{N: 1000, Seed: 1, C: 0.5})
	}
	want, err := os.ReadFile("testdata/figures.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("figures differ from testdata/figures.golden; got:\n%s", buf.Bytes())
	}
}

// TestFigureTable: every name the table carries is distinct and resolves,
// and an unknown name does not.
func TestFigureTable(t *testing.T) {
	seen := make(map[string]bool)
	for _, f := range Figures {
		if seen[f.Name] || f.Run == nil || f.Doc == "" {
			t.Errorf("figure %q: duplicate or incomplete entry", f.Name)
		}
		seen[f.Name] = true
		if got, ok := FigureNamed(f.Name); !ok || got.Name != f.Name {
			t.Errorf("FigureNamed(%q) = %q, %v", f.Name, got.Name, ok)
		}
	}
	if _, ok := FigureNamed("7"); ok {
		t.Error("FigureNamed accepted a name outside the table")
	}
}
