package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// checkUnionRemap compares unionRemap with the reference helpers on one
// input: the merged values, the old ID -> new ID table (nil means identity)
// and every segment's code -> new ID table.
func checkUnionRemap(t *testing.T, name string, oldVals []string, segs []*deltaSegment) {
	t.Helper()
	merged, oldToNew, segToNew := unionRemap(oldVals, segs)
	want := unionSorted(oldVals, distinctSegmentValues(segs))
	if !slices.Equal(merged, want) {
		t.Fatalf("%s: merged %q, want %q", name, merged, want)
	}
	wantOld := remapSorted(oldVals, want)
	if oldToNew == nil {
		for id, newID := range wantOld {
			if newID != uint64(id) {
				t.Fatalf("%s: nil old -> new table, but old ID %d moves to %d", name, id, newID)
			}
		}
	} else if !slices.Equal(oldToNew, wantOld) {
		t.Fatalf("%s: old -> new %v, want %v", name, oldToNew, wantOld)
	}
	for s, seg := range segs {
		wantSeg := remapSorted(seg.vals, want)
		if got := segToNew[:len(seg.vals)]; !slices.Equal(got, wantSeg) {
			t.Fatalf("%s: segment %d code -> new %v, want %v", name, s, got, wantSeg)
		}
		segToNew = segToNew[len(seg.vals):]
	}
	if len(segToNew) != 0 {
		t.Fatalf("%s: %d slots past the last segment", name, len(segToNew))
	}
}

// segmentOf returns a sealed segment holding vals (unique, any order) as its
// local codes, one row per value.
func segmentOf(vals ...string) *deltaSegment {
	seg := &deltaSegment{vals: vals, index: make(map[string]uint32)}
	for i, v := range vals {
		seg.index[v] = uint32(i)
		seg.rows = append(seg.rows, uint32(i))
	}
	return seg
}

// randomUnionInput draws sorted unique old values and 1-8 segments from a
// small alphabet, so values repeat across segments and with the old values.
func randomUnionInput(rng *rand.Rand, universe, nOld int) ([]string, []*deltaSegment) {
	val := func(k int) string { return fmt.Sprintf("v%03d", k) }
	var old []string
	for _, k := range rng.Perm(universe)[:min(nOld, universe)] {
		old = append(old, val(k))
	}
	slices.Sort(old)
	segs := make([]*deltaSegment, 1+rng.Intn(8))
	for s := range segs {
		var vals []string
		for _, k := range rng.Perm(universe)[:rng.Intn(universe+1)] {
			vals = append(vals, val(k))
		}
		segs[s] = segmentOf(vals...)
	}
	return old, segs
}

func TestUnionRemapMatchesReference(t *testing.T) {
	old := []string{"b", "d", "f"}
	for _, tc := range []struct {
		name string
		old  []string
		segs []*deltaSegment
	}{
		{"nothing", nil, nil},
		{"empty old values", nil, []*deltaSegment{segmentOf("q", "a", "m")}},
		{"empty segment", old, []*deltaSegment{segmentOf()}},
		{"empty segments between", old, []*deltaSegment{segmentOf(), segmentOf("c"), segmentOf()}},
		{"no segments", old, nil},
		{"all already present", old, []*deltaSegment{segmentOf("f", "b"), segmentOf("d")}},
		{"repeated across segments", old, []*deltaSegment{segmentOf("e", "a"), segmentOf("a", "e", "f"), segmentOf("e")}},
		{"new values above old", old, []*deltaSegment{segmentOf("z", "g")}},
		{"new values below old", old, []*deltaSegment{segmentOf("a", "0")}},
		{"new value between", old, []*deltaSegment{segmentOf("c", "d")}},
		{"empty string", old, []*deltaSegment{segmentOf("", "b")}},
	} {
		checkUnionRemap(t, tc.name, tc.old, tc.segs)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		universe := 1 + rng.Intn(40)
		old, segs := randomUnionInput(rng, universe, rng.Intn(universe+1))
		checkUnionRemap(t, fmt.Sprintf("random %d", i), old, segs)
	}
}

// FuzzUnionRemap checks unionRemap against the reference helpers on inputs
// decoded from bytes: the first byte splits old values from segment values,
// a zero byte starts the next segment, and every other byte is a value whose
// top three bits prefix up to seven 'a's, so values share prefixes and one
// is often a prefix of another (old values are sorted and deduplicated,
// segment values deduplicated in order).
func FuzzUnionRemap(f *testing.F) {
	f.Add([]byte{3, 'b', 'd', 'f', 'a', 'e', 0, 'e', 'f'})
	f.Add([]byte{0, 'x', 0, 0, 'x', 'y'})
	f.Add([]byte{4, 'a', 'b', 'c', 'd', 'b', 'c', 0, 'a'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split := min(int(data[0]), len(data)-1)
		var old []string
		value := func(b byte) string {
			return strings.Repeat("a", int(b>>5)) + string(rune('a'+b%32))
		}
		for _, b := range data[1 : 1+split] {
			old = append(old, value(b))
		}
		slices.Sort(old)
		old = slices.Compact(old)
		segs := []*deltaSegment{segmentOf()}
		for _, b := range data[1+split:] {
			seg, v := segs[len(segs)-1], value(b)
			switch _, dup := seg.index[v]; {
			case b == 0:
				segs = append(segs, segmentOf())
			case !dup:
				seg.index[v] = uint32(len(seg.vals))
				seg.rows = append(seg.rows, uint32(len(seg.vals)))
				seg.vals = append(seg.vals, v)
			}
		}
		checkUnionRemap(t, fmt.Sprintf("%q", data), old, segs)
	})
}
