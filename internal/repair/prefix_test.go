package repair

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"strdict/internal/datagen"
)

// checkPrefix holds the oracle behind TrainStats on one input: a training
// run stopped after cut rules and then resumed is indistinguishable from
// two independent runs. Every run is also compared with the reference
// trainer, so the flat trainer's tie-breaks are checked on arbitrary input.
//
//   - the rules of a run bounded at cut are the first min(cut, n) rules of
//     the unbounded run (n its rule count);
//   - the sequence lengths recorded at the cut and at the end equal
//     len(seqs[i]) of real bounded and unbounded runs;
//   - every rule expands to the concatenation of its children's expansions.
func checkPrefix(t testing.TB, parts [][]byte, cut int) {
	t.Helper()
	ref := newRefTrainer(parts, 16)
	ref.run()
	refCut := newRefTrainer(parts, 16)
	refCut.maxSym = int32(firstRuleSym + cut - 1)
	refCut.run()

	full := newTrainer(parts)
	full.run(MaxRules(16))
	if !reflect.DeepEqual(full.rules, ref.rules) {
		t.Fatalf("flat trainer derived %d rules, reference %d, or they differ", len(full.rules), len(ref.rules))
	}
	bounded := newTrainer(parts)
	bounded.run(cut)
	want := cut
	if len(full.rules) < want {
		want = len(full.rules)
	}
	if !reflect.DeepEqual(bounded.rules, full.rules[:want]) {
		t.Fatalf("run bounded at %d rules is not a prefix of the full run", cut)
	}

	resumed := newTrainer(parts)
	resumed.run(cut)
	atCut := resumed.seqLens()
	resumed.run(MaxRules(16))
	if !reflect.DeepEqual(resumed.rules, full.rules) {
		t.Fatalf("run resumed after %d rules differs from the uninterrupted run", cut)
	}
	for name, c := range map[string]struct {
		lens []int32
		seqs [][]int32
		ref  [][]int32
	}{
		"cut": {atCut, bounded.sequences(), refCut.sequences(len(parts))},
		"end": {resumed.seqLens(), full.sequences(), ref.sequences(len(parts))},
	} {
		if len(c.lens) != len(parts) || len(c.seqs) != len(parts) {
			t.Fatalf("%s: %d lengths, %d sequences for %d parts", name, len(c.lens), len(c.seqs), len(parts))
		}
		for i := range parts {
			if int(c.lens[i]) != len(c.seqs[i]) {
				t.Fatalf("%s: part %d: recorded length %d, real sequence has %d symbols", name, i, c.lens[i], len(c.seqs[i]))
			}
			if len(c.seqs[i])+len(c.ref[i]) > 0 && !reflect.DeepEqual(c.seqs[i], c.ref[i]) {
				t.Fatalf("%s: part %d: sequence differs from the reference trainer's", name, i)
			}
		}
	}

	g := &Grammar{symbolBits: 16, rules: full.rules}
	for i, r := range full.rules {
		whole := g.Expand(nil, int32(firstRuleSym+i))
		halves := g.Expand(g.Expand(nil, r.Left), r.Right)
		if !bytes.Equal(whole, halves) {
			t.Fatalf("rule %d expands to %q, its children to %q", i, whole, halves)
		}
	}
}

func TestRepair12IsPrefixOf16(t *testing.T) {
	// The public entry points at the real cut, on corpora that overflow the
	// 12-bit rule space (engl, hash), stop short of it (asc) or sit near it.
	for _, name := range []string{"asc", "engl", "hash", "mat"} {
		strs := datagen.Generate(name, goldenStrings, 1)
		for _, parts := range [][][]byte{arrayParts(strs), fcParts(strs)} {
			g12, seqs12 := Train(parts, 12)
			g16, seqs16 := Train(parts, 16)
			at12, at16 := TrainStats(parts)
			want := MaxRules(12)
			if g16.RuleCount() < want {
				want = g16.RuleCount()
			}
			if !reflect.DeepEqual(g12.rules, g16.rules[:want]) {
				t.Fatalf("%s: the 12-bit rules are not the first %d 16-bit rules", name, want)
			}
			if at12.Rules != g12.RuleCount() || at16.Rules != g16.RuleCount() {
				t.Fatalf("%s: TrainStats counts %d/%d rules, Train %d/%d",
					name, at12.Rules, at16.Rules, g12.RuleCount(), g16.RuleCount())
			}
			for i := range parts {
				if int(at12.SeqLens[i]) != len(seqs12[i]) || int(at16.SeqLens[i]) != len(seqs16[i]) {
					t.Fatalf("%s: part %d: TrainStats lengths %d/%d, Train %d/%d",
						name, i, at12.SeqLens[i], at16.SeqLens[i], len(seqs12[i]), len(seqs16[i]))
				}
			}
		}
	}
	// The full oracle, reference trainer included, at the real cut and at
	// cuts a small input can reach.
	strs := datagen.Generate("rand1", 3000, 2)
	checkPrefix(t, arrayParts(strs), MaxRules(12))
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 50; round++ {
		parts := make([][]byte, 1+rng.Intn(30))
		for i := range parts {
			parts[i] = make([]byte, rng.Intn(80))
			for j := range parts[i] {
				parts[i][j] = byte('a' + rng.Intn(1+round%5)) // runs and overlapping pairs
			}
		}
		checkPrefix(t, parts, 1+rng.Intn(40))
	}
}

// FuzzRepairPrefix runs the oracle on arbitrary parts: the input is split at
// NUL bytes and its first byte picks the cut.
func FuzzRepairPrefix(f *testing.F) {
	f.Add([]byte("\x03abcabcabc\x00abcabc\x00xyz\x00"))
	f.Add([]byte("\x01aaaa\x00aaa\x00aaaaaaaa\x00baaab"))
	f.Add([]byte("\x10the quick brown fox\x00the quick red fox\x00\x00the slow brown dog"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkPrefix(t, bytes.Split(data[1:], []byte{0}), 1+int(data[0])%64)
	})
}

// TestTrainStatsAllocs keeps the stats probe on flat storage: a run makes a
// small fixed number of allocations — position arrays, the pair tables and
// their doublings, the rule slice, two length slices — whether the input has
// a few hundred distinct pairs or tens of thousands. A per-pair allocation
// (a map entry, a heap object) would show as thousands.
func TestTrainStatsAllocs(t *testing.T) {
	for _, name := range []string{"asc", "rand2"} {
		parts := arrayParts(datagen.Generate(name, 3000, 1))
		allocs := testing.AllocsPerRun(3, func() { TrainStats(parts) })
		if allocs > 40 {
			t.Errorf("%s: TrainStats made %.0f allocations, want at most 40", name, allocs)
		}
	}
}
