package dict

import (
	"fmt"
	"testing"
)

// locateBytesCorpus is a value set that exercises shared prefixes (front
// coding), a skewed character distribution (huffman/n-gram tables) and mixed
// lengths, plus the probes that must miss: below the first value, between
// values, above the last.
func locateBytesCorpus() (values, misses []string) {
	for i := 0; i < 200; i++ {
		values = append(values, fmt.Sprintf("key-%04d", i*3))
	}
	values = append(values, "key-9999", "zeta", "zeta-longer-suffix")
	sortStrings(values)
	misses = []string{"", "aaa", "key-", "key-0001", "key-0598", "key-99990", "zz", "zeta-longer-suffix!"}
	return values, misses
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestLocateBytesMatchesLocate: for every registered format, the byte-slice
// probe path must return exactly what the string path returns — same ID,
// same found flag — on hits and on all three classes of miss.
func TestLocateBytesMatchesLocate(t *testing.T) {
	values, misses := locateBytesCorpus()
	for _, f := range AllFormats() {
		t.Run(f.String(), func(t *testing.T) {
			d, err := Build(f, values)
			if err != nil {
				t.Fatal(err)
			}
			check := func(probe string) {
				t.Helper()
				wantID, wantFound := d.Locate(probe)
				gotID, gotFound := LocateBytes(d, []byte(probe))
				if gotID != wantID || gotFound != wantFound {
					t.Fatalf("LocateBytes(%q) = (%d, %v), Locate = (%d, %v)",
						probe, gotID, gotFound, wantID, wantFound)
				}
			}
			for _, v := range values {
				check(v)
			}
			for _, m := range misses {
				check(m)
			}
		})
	}
}

// TestLocateBytesZeroAlloc: the raw-scheme array formats answer byte-slice
// probes by comparing the stored bytes in place, and the order-preserving
// compressed ones (bc, hu) by encoding the probe into a stack buffer and
// comparing encoded bytes — neither allocates, the property the dictionary
// translation inside colstore's Join depends on. (Front-coding formats still
// need a small decode buffer per probe.)
func TestLocateBytesZeroAlloc(t *testing.T) {
	values, _ := locateBytesCorpus()
	for _, f := range []Format{Array, ArrayFixed, ArrayBC, ArrayHU} {
		t.Run(f.String(), func(t *testing.T) {
			d, err := Build(f, values)
			if err != nil {
				t.Fatal(err)
			}
			bl, ok := d.(ByteLocator)
			if !ok {
				t.Fatalf("%s does not implement ByteLocator", f)
			}
			hit := []byte(values[len(values)/2])
			miss := []byte("key-0001")
			allocs := testing.AllocsPerRun(100, func() {
				if _, found := bl.LocateBytes(hit); !found {
					t.Fatal("hit probe not found")
				}
				bl.LocateBytes(miss)
			})
			if allocs != 0 {
				t.Fatalf("LocateBytes allocates %.1f per probe pair, want 0", allocs)
			}
		})
	}
}
