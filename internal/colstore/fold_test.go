package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

// foldState is everything a main-part producer can change that a caller can
// observe, captured after one step of the TestFoldMatchesParent script.
type foldState struct {
	step        string
	format      string
	dictLen     int
	dictBytes   uint64
	vectorBytes uint64
	sealed      int
	res         MergeResult
	mains       int    // JournalMainPart calls so far
	crc         uint32 // dict.Marshal + intcomp.Marshal(codes) + zones
}

func (s foldState) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d, %d, %d, MergeResult{%d, %d, %t}, %d, %#x},",
		s.step, s.format, s.dictLen, s.dictBytes, s.vectorBytes, s.sealed,
		s.res.Folded, s.res.Rewritten, s.res.DictBuilt, s.mains, s.crc)
}

// foldWant was recorded by running this script at the commit before fold
// replaced the three hand-written producers behind Merge, MergePartial and
// Rebuild. It pins every observable result bit for bit; a mismatch prints
// the full table in this form. The six rows whose main vector was then a
// concatenation (an identity partial fold appended its codes as a part)
// were re-recorded when partial folds started re-packing the main vector:
// only their vectorBytes, Rewritten and crc cells moved.
var foldWant = []foldState{
	{"merge first delta", "fc block", 600, 13079, 11272, 0, MergeResult{9000, 9000, true}, 1, 0x89de8dee},
	{"partial(1) no new values", "fc block", 600, 13079, 12144, 0, MergeResult{700, 9700, false}, 2, 0xa1c8b06f},
	{"partial(1) new values", "fc block", 900, 19340, 13016, 0, MergeResult{700, 10400, true}, 3, 0x8369c4b0},
	{"partial(1) of four segments", "fc block", 900, 19340, 13392, 3, MergeResult{300, 10700, false}, 4, 0xab166a65},
	{"partial(0)", "fc block", 900, 19340, 13392, 3, MergeResult{0, 0, false}, 4, 0xab166a65},
	{"rebuild new format, delta pending", "array hu", 900, 33901, 13392, 4, MergeResult{0, 0, false}, 5, 0x1b48190e},
	{"rebuild same format", "array hu", 900, 33901, 13392, 4, MergeResult{0, 0, false}, 5, 0x1b48190e},
	{"partial(99) clamps", "array hu", 993, 37163, 14392, 0, MergeResult{800, 11500, true}, 6, 0x6e3d3676},
	{"partial(1) nothing sealed", "array hu", 993, 37163, 14392, 0, MergeResult{0, 0, false}, 6, 0x6e3d3676},
	{"merge empty delta same format", "array hu", 993, 37163, 14392, 0, MergeResult{0, 0, false}, 6, 0x6e3d3676},
	{"merge empty delta new format", "fc block rp 12", 993, 13247, 14392, 0, MergeResult{0, 11500, true}, 7, 0xe2a4cc49},
	{"merge delta rows new values", "fc block rp 12", 1371, 17388, 15797, 0, MergeResult{800, 12300, true}, 8, 0x8f39a724},
	{"merge large delta new format", "column bc", 1500, 59209, 22729, 0, MergeResult{5000, 17300, true}, 9, 0x25a2e2be},
	{"partial(1) no new values again", "column bc", 1500, 59209, 23154, 0, MergeResult{300, 17600, false}, 10, 0xc7581446},
	{"merge delta rows no new values same format", "column bc", 1500, 59209, 23570, 0, MergeResult{300, 17900, true}, 11, 0xfec3ee97},
}

// TestFoldMatchesParent drives every way a main part is produced — full
// merges (no-op, format-only, with delta rows), partial folds (identity,
// ID-shifting, clamped) and format rebuilds (new and same format, with
// sealed and active rows pending) — and compares dictionary bytes, vector
// layout, zones, MergeResult and journal traffic with the recorded parent.
func TestFoldMatchesParent(t *testing.T) {
	vals := datagen.Generate("url", 1500, 7)
	s := NewStore()
	j := newRecJournal()
	s.SetJournal(j)
	c := s.AddTable("t").AddString("s", dict.FCBlock)

	// appendRows appends n rows cycling through vals[lo:hi] with a stride
	// that is coprime to every window used below.
	var rows []string
	appendRows := func(n, lo, hi int) {
		for i := 0; i < n; i++ {
			rows = append(rows, vals[lo+(len(rows)*7)%(hi-lo)])
			c.Append(rows[len(rows)-1])
		}
	}

	var got []foldState
	record := func(step string, res MergeResult) {
		// The pinned cells say nothing about which value a row holds.
		if c.Len() != len(rows) {
			t.Fatalf("%s: column has %d rows, script appended %d", step, c.Len(), len(rows))
		}
		for i, want := range rows {
			if v := c.Get(i); v != want {
				t.Fatalf("%s: row %d = %q, want %q", step, i, v, want)
			}
		}
		d, codes, _ := c.MainParts()
		db, err := dict.Marshal(d)
		if err != nil {
			t.Fatalf("%s: dict.Marshal: %v", step, err)
		}
		vb, err := intcomp.Marshal(codes)
		if err != nil {
			t.Fatalf("%s: intcomp.Marshal: %v", step, err)
		}
		h := crc32.NewIEEE()
		h.Write(db)
		h.Write(vb)
		for _, z := range c.version.Load().zones {
			for _, x := range []uint64{uint64(z.start), uint64(z.n), z.min, z.max} {
				h.Write(binary.LittleEndian.AppendUint64(nil, x))
			}
		}
		got = append(got, foldState{
			step: step, format: c.Format().String(), dictLen: c.DictLen(),
			dictBytes: c.DictBytes(), vectorBytes: c.VectorBytes(),
			sealed: c.SealedSegments(), res: res, mains: j.mains["t.s"], crc: h.Sum32(),
		})
	}

	appendRows(9000, 0, 600)
	record("merge first delta", c.Merge(dict.FCBlock))

	appendRows(700, 0, 600)
	record("partial(1) no new values", c.MergePartial(1))

	appendRows(700, 500, 900)
	record("partial(1) new values", c.MergePartial(1))

	for i := 0; i < 3; i++ {
		appendRows(300, 0, 900)
		seal(c)
	}
	appendRows(100, 800, 1000)
	record("partial(1) of four segments", c.MergePartial(1))
	record("partial(0)", c.MergePartial(0))

	appendRows(50, 0, 1000)
	seal(c)
	appendRows(50, 900, 1100) // left active: Rebuild must not seal it
	c.Rebuild(dict.ArrayHU)
	record("rebuild new format, delta pending", MergeResult{})
	c.Rebuild(dict.ArrayHU)
	record("rebuild same format", MergeResult{})

	record("partial(99) clamps", c.MergePartial(99))
	record("partial(1) nothing sealed", c.MergePartial(1))

	record("merge empty delta same format", c.Merge(dict.ArrayHU))
	record("merge empty delta new format", c.Merge(dict.FCBlockRP12))

	appendRows(400, 0, 1100)
	seal(c)
	appendRows(400, 1000, 1500)
	record("merge delta rows new values", c.Merge(dict.FCBlockRP12))

	appendRows(5000, 0, 1500)
	record("merge large delta new format", c.Merge(dict.ColumnBC))

	// A full merge always rebuilds and repacks, even when the delta brings
	// no new value.
	appendRows(300, 0, 1500)
	record("partial(1) no new values again", c.MergePartial(1))
	appendRows(300, 0, 1500)
	record("merge delta rows no new values same format", c.Merge(dict.ColumnBC))

	mismatch := len(got) != len(foldWant)
	for i := 0; !mismatch && i < len(got); i++ {
		mismatch = got[i] != foldWant[i]
	}
	if mismatch {
		lines := make([]string, len(got))
		for i, g := range got {
			lines[i] = "\t" + g.String()
		}
		t.Fatalf("fold results differ from the recorded parent; got:\n%s", strings.Join(lines, "\n"))
	}
}
