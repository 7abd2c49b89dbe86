package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"strdict/internal/dict"
)

// predicateCorpora are the columns of the predicate oracle: dictionary-test
// shaped value sets (prefixed words, fixed-width digits, random bytes, the
// empty string, one value) plus values ending in and made of 0xff bytes,
// where a prefix's successor has to carry.
func predicateCorpora() map[string][]string {
	rng := rand.New(rand.NewSource(123))
	var words, digits, random []string
	for _, b := range []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"} {
		for i := 0; i < 20; i++ {
			words = append(words, fmt.Sprintf("%s-%03d", b, i))
		}
	}
	for i := 0; i < 300; i++ {
		digits = append(digits, fmt.Sprintf("%018d", i*7919))
		b := make([]byte, 1+rng.Intn(12))
		for j := range b {
			b[j] = byte(1 + rng.Intn(255))
		}
		random = append(random, string(b))
	}
	return map[string][]string{
		"prefixed words": words,
		"fixed digits":   digits,
		"random bytes":   random,
		"with empty":     {"", "x", "xx", "xxx", "xy"},
		"single":         {"lonely"},
		"0xff": {"a", "a\xff", "a\xff\xff", "a\xffb", "ab", "b", "\xff", "\xff\xff",
			"\xff\xffz"},
	}
}

// predicatePrefixes are the probe classes of PrefixSet on a sorted, distinct
// value set: empty; longer than every value; equal to a whole value; absent
// and between two values; ending in 0xff; all 0xff — and every one- and
// two-byte prefix of a value.
func predicatePrefixes(sorted []string) []string {
	longest := ""
	for _, v := range sorted {
		if len(v) > len(longest) {
			longest = v
		}
	}
	mid := sorted[len(sorted)/2]
	out := []string{"", longest + "x", mid, mid + "\x01", mid + "\xff", "\xff", "\xff\xff", "a\xff"}
	for _, v := range sorted {
		for n := 1; n <= 2 && n <= len(v); n++ {
			out = append(out, v[:n])
		}
	}
	return out
}

// TestCodeSetAndPrefixSet is the predicate operators' oracle on every
// registered format: CodeSet(pred) holds exactly the IDs whose value
// satisfies pred, ValueSet(in...) exactly the values of in at one locate
// each, PrefixSet(p) exactly those strings.HasPrefix(value, p) holds for,
// none holds NoCode, and a prefix costs two locates and no extract — one
// locate with no successor (all 0xff), none when empty.
func TestCodeSetAndPrefixSet(t *testing.T) {
	for name, vals := range predicateCorpora() {
		sorted := append([]string(nil), vals...)
		sort.Strings(sorted)
		for _, f := range dict.AllFormats() {
			c := loadColumn(t, f, vals)
			snap := c.Snapshot()
			values := snap.DictValues()

			pred := func(v string) bool { return strings.ContainsAny(v, "a5\xff") || len(v)%3 == 0 }
			set := snap.CodeSet(pred)
			for id, v := range values {
				if set.Has(uint32(id)) != pred(v) {
					t.Fatalf("%s/%s: CodeSet(pred).Has(%d) = %v for %q", f, name, id, !pred(v), v)
				}
			}
			if set.Has(NoCode) {
				t.Fatalf("%s/%s: CodeSet holds NoCode", f, name)
			}
			snap.Release()

			in := []string{sorted[0], sorted[len(sorted)/2], sorted[len(sorted)/2] + "\x01", "\xff\xff\xff"}
			c.ResetStats()
			snap = c.Snapshot()
			set = snap.ValueSet(in...)
			snap.Release()
			for id, v := range values {
				if set.Has(uint32(id)) != slices.Contains(in, v) {
					t.Fatalf("%s/%s: ValueSet(%q).Has(%d) wrong for %q", f, name, in, id, v)
				}
			}
			if got := c.Stats(); set.Has(NoCode) || got != (AccessStats{Locates: uint64(len(in))}) {
				t.Fatalf("%s/%s: ValueSet holds NoCode or cost %+v, want %d locates", f, name, got, len(in))
			}

			for _, p := range predicatePrefixes(sorted) {
				c.ResetStats()
				snap := c.Snapshot()
				set := snap.PrefixSet(p)
				snap.Release()
				for id, v := range values {
					if set.Has(uint32(id)) != strings.HasPrefix(v, p) {
						t.Fatalf("%s/%s: PrefixSet(%q).Has(%d) = %v for %q", f, name, p, id, !strings.HasPrefix(v, p), v)
					}
				}
				if set.Has(NoCode) {
					t.Fatalf("%s/%s: PrefixSet(%q) holds NoCode", f, name, p)
				}
				want := AccessStats{Locates: 2}
				if strings.Count(p, "\xff") == len(p) { // no successor
					want.Locates = min(uint64(len(p)), 1)
				}
				if got := c.Stats(); got != want {
					t.Fatalf("%s/%s: PrefixSet(%q) cost %+v, want %+v", f, name, p, got, want)
				}
			}
		}
	}
}
