package colstore

import (
	"fmt"
	"sort"
	"testing"

	"strdict/internal/dict"
)

// TestCodeRangeBoundarySemantics pins the Definition 1 Locate contract as
// seen through CodeRange, for every dictionary format: an absent bound
// resolves to the ID of the first string greater than it (Len() if every
// string is smaller), so [lo, hi) on strings maps exactly to [loID, hiID)
// on value IDs. The reference is sort.SearchStrings over the sorted
// distinct values — the two must agree on present bounds, absent bounds
// below / between / above all values, and empty ranges.
func TestCodeRangeBoundarySemantics(t *testing.T) {
	// Distinct values with gaps so every probe class exists. Even-numbered
	// keys are present; odd ones fall in the gaps.
	var values []string
	for i := 0; i < 50; i++ {
		values = append(values, fmt.Sprintf("key-%04d", 2*i))
	}
	probes := []string{
		"", "aaa", "key-0000", // below / at the bottom boundary
		"key-0001", "key-0050", "key-0051", // interior: present and absent
		"key-0098", "key-0099", // top boundary and just past it
		"zzz", // above every value
	}
	ref := func(s string) uint32 {
		return uint32(sort.SearchStrings(values, s))
	}

	for _, f := range dict.AllFormats() {
		f := f
		t.Run(f.String(), func(t *testing.T) {
			s := NewStore()
			c := s.AddTable("t").AddString("c", f)
			// Append shuffled-ish (reverse) so construction order is not the
			// sorted order, then fold everything into the main part.
			for i := len(values) - 1; i >= 0; i-- {
				c.Append(values[i])
			}
			c.Merge(f)
			snap := c.Snapshot()

			for _, lo := range probes {
				for _, hi := range probes {
					wantLo, wantHi := ref(lo), ref(hi)
					if gotLo, gotHi := snap.CodeRange(lo, hi); gotLo != wantLo || gotHi != wantHi {
						t.Fatalf("Snapshot.CodeRange(%q, %q) = [%d, %d), want [%d, %d)",
							lo, hi, gotLo, gotHi, wantLo, wantHi)
					}
				}
			}
			// Sanity: the ID range really selects the right rows. Rows were
			// appended in reverse, so row i holds values[len-1-i].
			loID, hiID := snap.CodeRange("key-0010", "key-0021")
			var got []string
			for i := 0; i < c.Len(); i++ {
				id, ok := snap.Code(i)
				if !ok {
					t.Fatalf("row %d not in main part after Merge", i)
				}
				if id >= loID && id < hiID {
					got = append(got, snap.Extract(id))
				}
			}
			sort.Strings(got)
			want := []string{"key-0010", "key-0012", "key-0014", "key-0016", "key-0018", "key-0020"}
			if len(got) != len(want) {
				t.Fatalf("range scan got %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("range scan got %v, want %v", got, want)
				}
			}
		})
	}
}
