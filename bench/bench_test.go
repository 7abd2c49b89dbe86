package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"strdict/internal/persist"
)

func TestPickTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0.50}, {39, 0.50}, {40, 0.75}, {54, 0.75}, {100, 0.90}, {199, 0.90},
		{200, 0.95}, {726, 0.95}, {999, 0.95}, {1000, 0.99}, {96000, 0.99},
	} {
		if got := pickTail(tc.n); got != tc.want {
			t.Errorf("pickTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	l := lat{50, 10, 40, 20, 30}.sorted()
	for q, want := range map[float64]float64{0: 10, 0.5: 30, 0.75: 40, 0.99: 50, 1: 50} {
		if got := l.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// l0 (100) → l1 (70) → l2 (40) → {leaf a (10), leaf b (25)}; under
	// layered replay the children run at other wall times than the parent.
	spans := []span{
		{ID: 0, Parent: -1, Name: "l0", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "l1", Start: 500, End: 570},
		{ID: 2, Parent: 1, Name: "l2", Start: 900, End: 940},
		{ID: 3, Parent: 2, Name: "leaf", Start: 1000, End: 1010},
		{ID: 4, Parent: 2, Name: "leaf", Start: 1010, End: 1035},
		{ID: 5, Parent: 3, Name: "longer-than-parent", Start: 0, End: 50},
	}
	want := []int64{30, 30, 5, 0, 25, 50}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	var sum int64
	for _, d := range got[:5] {
		sum += d
	}
	if byName := selfByName(spans); byName["leaf"] != 25 || byName["l0"] != 30 {
		t.Errorf("selfByName = %v", byName)
	}
	if sum != 90 { // 100 less the 10 ns floored away under span 3
		t.Errorf("self times sum to %d", sum)
	}
}

func genSessions(seed int64) [][]op {
	var sessions [][]op
	for s := 0; s < 2; s++ {
		tab := newTableData(s, "tenant", "table", svcCorpora[s], 400, 120, 200, seed*1000+int64(s))
		sessions = append(sessions, newOpGen(seed*7919+int64(s), []*tableData{tab}, 20, false).sequence(80, svcWriteFrac))
	}
	return sessions
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	a, b, c := seqHash(genSessions(1)), seqHash(genSessions(1)), seqHash(genSessions(2))
	if a != b {
		t.Errorf("same seed, different sequences: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 gave the same sequence %s", a)
	}
}

func TestCountFSIsAPassThrough(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	cfs := newCountFS()
	chunks := [][]byte{[]byte("hello "), bytes.Repeat([]byte{0, 1, 2, 255}, 1000), []byte("tail")}
	for i, fs := range []persist.FS{persist.OS, cfs} {
		for _, name := range []string{"wal-00000001.log", "p00000001.part"} {
			f, err := fs.Create(filepath.Join(dirs[i], name))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range chunks {
				if n, err := f.Write(c); n != len(c) || err != nil {
					t.Fatalf("write: %d, %v", n, err)
				}
			}
			if err := f.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fs.WriteFile(filepath.Join(dirs[i], "side"), []byte("xyz")); err != nil {
			t.Fatal(err)
		}
		if err := fs.Rename(filepath.Join(dirs[i], "side"), filepath.Join(dirs[i], "side2")); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(dirs[i]); err != nil {
			t.Fatal(err)
		}
	}
	names, err := cfs.ReadDir(dirs[1])
	if err != nil || len(names) != 3 {
		t.Fatalf("ReadDir: %v, %v", names, err)
	}
	for _, name := range names {
		want, err1 := persist.OS.ReadFile(filepath.Join(dirs[0], name))
		got, err2 := cfs.ReadFile(filepath.Join(dirs[1], name))
		if err1 != nil || err2 != nil || !bytes.Equal(want, got) {
			t.Errorf("%s differs through countFS (%v, %v)", name, err1, err2)
		}
	}
	perFile := int64(len(chunks[0]) + len(chunks[1]) + len(chunks[2]))
	if got := cfs.writeBytes.Load(); got != 2*perFile+3 {
		t.Errorf("writeBytes = %d, want %d", got, 2*perFile+3)
	}
	if got := cfs.walBytes.Load(); got != perFile {
		t.Errorf("walBytes = %d, want %d", got, perFile)
	}
	if cfs.writes.Load() != 7 || cfs.syncs.Load() != 3 || len(cfs.syncLat) != 3 {
		t.Errorf("writes %d syncs %d sync samples %d, want 7, 3, 3", cfs.writes.Load(), cfs.syncs.Load(), len(cfs.syncLat))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name   string
		b      []float64
		better string
		want   verdict
	}{
		{"same", steady, "lower", verdictOK},
		{"slower within bound", []float64{108, 109, 107, 108, 108}, "lower", verdictOK},
		{"slower beyond bound", []float64{115, 116, 114, 115, 115}, "lower", verdictRegressed},
		{"faster", []float64{50, 51, 49, 50, 50}, "lower", verdictOK},
		{"throughput dropped", []float64{80, 81, 79, 80, 80}, "higher", verdictRegressed},
		{"throughput rose", []float64{120, 121, 119, 120, 120}, "higher", verdictOK},
		{"too noisy to tell", []float64{80, 130, 100, 150, 90}, "lower", verdictUnresolved},
	} {
		if got, _ := judge(steady, tc.b, tc.better, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestManifestMatches keeps BENCHMARK.json and the tables in metrics.go in
// step: same workloads, same metrics, same units.
func TestManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Why string }
	var mf struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Paths) != 1 || mf.Paths[0] != "bench" {
		t.Errorf("paths = %v", mf.Paths)
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d entries in BENCHMARK.json, %d in metrics.go", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), metrics.go %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", mf.EndToEnd, endToEnd)
	check("per_layer", mf.PerLayer, perLayer)
	if len(mf.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in metrics.go", len(mf.Workloads), len(workloadDefs))
	}
	for i, wd := range workloadDefs {
		if mf.Workloads[i].Name != wd.Name || mf.Workloads[i].Why != wd.Why {
			t.Errorf("workload %d: %q / %q", i, mf.Workloads[i].Name, wd.Name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at about 1% of the
// benchmark's size: the oracle must hold, every end-to-end metric must be
// set, and every traced run must leave its trace file.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	out := t.TempDir()
	for _, wd := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(wd.Name, smokeSizes(), 1, 1, trace, out)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", wd.Name, trace, res.Failed, res.Attempted)
			}
			if trace {
				if _, err := os.Stat(filepath.Join(out, wd.Name+".trace.json")); err != nil {
					t.Errorf("%s: %v", wd.Name, err)
				}
				if res.Metrics["harness.l0_p50_us"].Value <= 0 {
					t.Errorf("%s: traced run reports no L0 time", wd.Name)
				}
				continue
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: %s = %v", wd.Name, d.Name, res.Metrics[d.Name].Value)
				}
			}
		}
	}
}
