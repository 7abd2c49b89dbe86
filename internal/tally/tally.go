// Package tally is a flat uint32 → uint32 table for the codec trainers that
// count symbol pairs and n-grams packed into an integer key: open
// addressing over one slice, no per-key allocation, and a ranking of the
// counted keys whose order is a pure function of the counts.
package tally

import "slices"

// Table maps uint32 keys to nonzero uint32 values; a key that was never
// stored reads as zero. The zero Table is empty and ready to use.
type Table struct {
	ents  []entry // length a power of two, at most half full
	used  int
	shift uint // 32 - log2(len(ents))
}

type entry struct{ key, val uint32 }

// find returns the index of key's entry, or of the empty entry where it
// belongs. The table must have been sized.
func (t *Table) find(key uint32) int {
	i := int(key * 0x9E3779B1 >> t.shift)
	for t.ents[i].val != 0 && t.ents[i].key != key {
		i = (i + 1) & (len(t.ents) - 1)
	}
	return i
}

// slot is find for a key about to be stored: it grows the table first when
// the key is new and would fill it beyond half.
func (t *Table) slot(key uint32) *entry {
	if len(t.ents) == 0 {
		t.resize(64)
	}
	i := t.find(key)
	if t.ents[i].val == 0 {
		if 2*t.used >= len(t.ents) {
			t.resize(2 * len(t.ents))
			i = t.find(key)
		}
		t.used++
		t.ents[i].key = key
	}
	return &t.ents[i]
}

func (t *Table) resize(n int) {
	old := t.ents
	t.ents = make([]entry, n)
	t.shift = 32
	for ; n > 1; n >>= 1 {
		t.shift--
	}
	for _, e := range old {
		if e.val != 0 {
			t.ents[t.find(e.key)] = e
		}
	}
}

// Inc adds one to key's value.
func (t *Table) Inc(key uint32) { t.slot(key).val++ }

// Set stores val, which must not be zero, under key.
func (t *Table) Set(key, val uint32) { t.slot(key).val = val }

// Get returns key's value, zero if it has none.
func (t *Table) Get(key uint32) uint32 {
	if len(t.ents) == 0 {
		return 0
	}
	return t.ents[t.find(key)].val
}

// Len returns the number of keys stored.
func (t *Table) Len() int { return t.used }

// Reset empties the table, keeping its storage.
func (t *Table) Reset() {
	clear(t.ents)
	t.used = 0
}

// Ranked appends to dst every key whose value is at least min, ordered by
// value descending and, among equal values, key ascending. An element packs
// ^value<<32 | key; Unrank unpacks it.
func (t *Table) Ranked(dst []uint64, min uint32) []uint64 {
	from := len(dst)
	for _, e := range t.ents {
		if e.val != 0 && e.val >= min {
			dst = append(dst, uint64(^e.val)<<32|uint64(e.key))
		}
	}
	slices.Sort(dst[from:])
	return dst
}

// Unrank splits an element of Ranked into its key and value.
func Unrank(e uint64) (key, val uint32) { return uint32(e), ^uint32(e >> 32) }
