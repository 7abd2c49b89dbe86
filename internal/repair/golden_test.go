package repair

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/golden"
)

// goldenStrings is the corpus size of the rule digests: large enough that
// most corpora overflow the 12-bit rule space, so the digests cover both the
// saturated and the run-to-exhaustion ending of a training run.
const goldenStrings = 6000

// arrayParts is the part set of the array dictionary class: whole strings.
func arrayParts(strs []string) [][]byte {
	parts := make([][]byte, len(strs))
	for i, s := range strs {
		parts[i] = []byte(s)
	}
	return parts
}

// fcParts is the part set of the front-coded class: per block of 16 strings
// the first string whole, then every string's suffix after the prefix it
// shares with its predecessor.
func fcParts(strs []string) [][]byte {
	parts := make([][]byte, len(strs))
	for i, s := range strs {
		pl := 0
		if i%16 != 0 {
			prev := strs[i-1]
			for pl < len(prev) && pl < len(s) && prev[pl] == s[pl] {
				pl++
			}
		}
		parts[i] = []byte(s[pl:])
	}
	return parts
}

// TestRulesGolden pins the grammar Train derives — the rule table and every
// part's symbol sequence, as FNV-64a digests — per corpus, part set and
// symbol width. The pair chosen at each step depends on how the priority
// queue breaks ties between equally frequent pairs, so the digests were
// generated on the container/heap trainer and any reimplementation must
// reproduce its sift order exactly.
func TestRulesGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, goldenStrings, 1)
		for _, ps := range []struct {
			name  string
			parts [][]byte
		}{{"array", arrayParts(strs)}, {"fc", fcParts(strs)}} {
			for _, w := range []uint{12, 16} {
				g, seqs := Train(ps.parts, w)
				rh, sh := fnv.New64a(), fnv.New64a()
				var b [8]byte
				for _, r := range g.rules {
					binary.LittleEndian.PutUint32(b[:4], uint32(r.Left))
					binary.LittleEndian.PutUint32(b[4:], uint32(r.Right))
					rh.Write(b[:])
				}
				syms := 0
				for _, seq := range seqs {
					for _, s := range seq {
						binary.LittleEndian.PutUint32(b[:4], uint32(s))
						sh.Write(b[:4])
					}
					binary.LittleEndian.PutUint32(b[:4], EOS)
					sh.Write(b[:4])
					syms += len(seq)
				}
				fmt.Fprintf(&buf, "%s\t%s\t%d\trules=%d\tsyms=%d\t%016x\t%016x\n",
					name, ps.name, w, g.RuleCount(), syms, rh.Sum64(), sh.Sum64())
			}
		}
	}
	golden.Check(t, "testdata/rules.golden", buf.Bytes())
}
