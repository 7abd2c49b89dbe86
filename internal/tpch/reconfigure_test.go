package tpch

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"strdict/internal/colstore"
	"strdict/internal/core"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// loadSerial is Load with its first merges run one after another in store
// order, the reference for the column pool.
func loadSerial(cfg Config) *colstore.Store {
	s := colstore.NewStore()
	g := &gen{rng: rand.New(rand.NewSource(cfg.Seed))}
	nSupp := scaled(sfSupplier, cfg.ScaleFactor)
	nCust := scaled(sfCustomer, cfg.ScaleFactor)
	nPart := scaled(sfPart, cfg.ScaleFactor)
	nOrd := scaled(sfOrders, cfg.ScaleFactor)
	genRegion(s, g)
	genNation(s, g)
	genSupplier(s, g, nSupp)
	genCustomer(s, g, nCust)
	genPart(s, g, nPart)
	genPartsupp(s, g, nPart, nSupp)
	genOrdersAndLineitem(s, g, nOrd, nCust, nPart, nSupp)
	for _, c := range s.StringColumns() {
		c.Merge(cfg.InitialFormat)
	}
	s.ResetStats()
	return s
}

// mainBytes is a column's main part as persisted: the dictionary's and the
// code vector's serialized bytes.
func mainBytes(t *testing.T, c *colstore.StringColumn) []byte {
	t.Helper()
	d, codes, _ := c.MainParts()
	db, err := dict.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := intcomp.Marshal(codes)
	if err != nil {
		t.Fatal(err)
	}
	return append(db, cb...)
}

// TestReconfigureMatchesSerial checks that Load and Reconfigure on the
// column pool build what one column after another builds: after Load every
// main part is byte-identical, and after one traced pass Reconfigure picks
// the same format per column and builds byte-identical main parts to a
// serial ChooseFormat + Rebuild loop. The pool runs on at least four
// workers, whatever the host's core count.
func TestReconfigureMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 4)))
	for _, seed := range []int64{1, 2} {
		cfg := Config{ScaleFactor: 0.005, Seed: seed, InitialFormat: dict.FCInline}
		pooled, serial := Load(cfg), loadSerial(cfg)
		pc, sc := pooled.StringColumns(), serial.StringColumns()
		if len(pc) != len(sc) {
			t.Fatalf("seed %d: %d pooled columns, %d serial", seed, len(pc), len(sc))
		}
		for i := range pc {
			if !bytes.Equal(mainBytes(t, pc[i]), mainBytes(t, sc[i])) {
				t.Fatalf("seed %d: %s: Load's main part differs from the serial merge", seed, pc[i].Name())
			}
		}
		RunAll(pooled)
		RunAll(serial)

		mgr := core.NewManager(core.Options{InitialC: 1, Strategy: core.StrategyTilt})
		got := Reconfigure(pooled, mgr, 1e9, 0.01, seed)
		for i, c := range sc {
			if ps, ss := pc[i].Stats(), c.Stats(); ps != ss {
				t.Fatalf("seed %d: %s: traced %+v pooled, %+v serial", seed, c.Name(), ps, ss)
			}
			snap := c.Snapshot()
			want := mgr.ChooseFormat(core.SnapshotStats(snap, 1e9, 0.01, seed)).Format
			snap.Release()
			c.Rebuild(want)
			if got[c.Name()] != want {
				t.Errorf("seed %d: %s: Reconfigure chose %s, the serial loop %s", seed, c.Name(), got[c.Name()], want)
			}
			if !bytes.Equal(mainBytes(t, pc[i]), mainBytes(t, c)) {
				t.Errorf("seed %d: %s: Reconfigure's main part differs from the serial rebuild", seed, c.Name())
			}
		}
		if formats := FormatDistribution(pooled); len(formats) < 3 {
			t.Errorf("seed %d: only %d formats chosen, the check needs variety: %v", seed, len(formats), formats)
		}
		if len(got) != len(sc) {
			t.Errorf("seed %d: Reconfigure returned %d formats for %d columns", seed, len(got), len(sc))
		}
	}
}
