package tally

import (
	"math/rand"
	"sort"
	"testing"
)

// TestTableMatchesMap drives a Table and a map with the same random
// operations, across several growth steps and a Reset, and compares every
// read and the ranking.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tb Table
	for round := 0; round < 3; round++ {
		ref := make(map[uint32]uint32)
		for i := 0; i < 20000; i++ {
			key := uint32(rng.Intn(3000)) * 0x01000193 // spread over the key space, many repeats
			if rng.Intn(10) == 0 {
				v := uint32(1 + rng.Intn(5))
				tb.Set(key, v)
				ref[key] = v
			} else {
				tb.Inc(key)
				ref[key]++
			}
		}
		if tb.Len() != len(ref) {
			t.Fatalf("round %d: Len = %d, want %d", round, tb.Len(), len(ref))
		}
		for key, want := range ref {
			if got := tb.Get(key); got != want {
				t.Fatalf("round %d: Get(%#x) = %d, want %d", round, key, got, want)
			}
		}
		if got := tb.Get(0xdeadbeef); got != 0 {
			t.Fatalf("absent key reads %d", got)
		}

		const min = 4
		type kv struct{ key, val uint32 }
		var want []kv
		for k, v := range ref {
			if v >= min {
				want = append(want, kv{k, v})
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].val != want[j].val {
				return want[i].val > want[j].val
			}
			return want[i].key < want[j].key
		})
		ranked := tb.Ranked(nil, min)
		if len(ranked) != len(want) {
			t.Fatalf("round %d: %d ranked keys, want %d", round, len(ranked), len(want))
		}
		for i, e := range ranked {
			if k, v := Unrank(e); k != want[i].key || v != want[i].val {
				t.Fatalf("round %d: rank %d is (%#x, %d), want (%#x, %d)", round, i, k, v, want[i].key, want[i].val)
			}
		}
		tb.Reset()
		if tb.Len() != 0 || tb.Get(want[0].key) != 0 {
			t.Fatal("Reset left keys behind")
		}
	}
}

func TestZeroTable(t *testing.T) {
	var tb Table
	if tb.Get(7) != 0 || tb.Len() != 0 || len(tb.Ranked(nil, 0)) != 0 {
		t.Fatal("zero Table is not empty")
	}
	tb.Reset()
}
