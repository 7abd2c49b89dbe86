package dict

import (
	"errors"
	"fmt"
	"testing"

	"strdict/internal/bits"
)

// onpairCorpus repeats long substrings, so the trainer promotes pairs of
// every depth and each string is a handful of deep symbols.
func onpairCorpus() []string {
	var strs []string
	for i := 0; i < 400; i++ {
		strs = append(strs, fmt.Sprintf("carefully final deposits %03d sleep quickly %03d", i/7, i))
	}
	return strs
}

// onpairBlob marshals a one-string OnPair dictionary over the given pair
// table whose string is the last pair's symbol.
func onpairBlob(t testing.TB, pairs []uint32) []byte {
	d := &onpairDict{n: 1, pairs: pairs,
		syms:    bits.PackSlice([]uint64{uint64(255 + len(pairs))}),
		offsets: bits.PackSlice([]uint64{0, 1})}
	blob, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// doublingPairs is pair j = (255+j, 255+j): pair 0 is two 0xff bytes and
// pair j doubles pair j-1, so pair j is j+1 levels deep and 2^(j+1) bytes.
func doublingPairs(n int) []uint32 {
	pairs := make([]uint32, n)
	for j := range pairs {
		pairs[j] = uint32(255+j)<<16 | uint32(255+j)
	}
	return pairs
}

// TestOnPairRejectsDeepPairs: onpairRounds rounds of promotion build no
// pair deeper than onpairRounds or longer than 2^onpairRounds bytes, so
// Unmarshal rejects a blob with one — exponentially long (doubling) or
// merely deep (a left chain of single bytes) — and accepts the deepest and
// longest pair a build can make.
func TestOnPairRejectsDeepPairs(t *testing.T) {
	chain := []uint32{'a'<<16 | 'b'}
	for j := 1; j < onpairRounds+1; j++ {
		chain = append(chain, uint32(255+j)<<16|'c')
	}
	for _, tc := range []struct {
		name  string
		pairs []uint32
		ok    bool
	}{
		{"doubling to the limit", doublingPairs(onpairRounds), true},
		{"doubling past the limit", doublingPairs(onpairRounds + 1), false},
		{"chain to the limit", chain[:onpairRounds], true},
		{"chain past the limit", chain, false},
	} {
		d, err := Unmarshal(onpairBlob(t, tc.pairs))
		if !tc.ok {
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: Unmarshal error %v, want ErrCorrupt", tc.name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := d.Extract(0)
		d.ForEach(func(_ uint32, value []byte) bool {
			if string(value) != want {
				t.Errorf("%s: ForEach = %q, Extract = %q", tc.name, value, want)
			}
			return true
		})
	}
}

// TestOnPairAppendExtractAllocs: extraction expands pairs through a fixed
// stack, so into a warm buffer it allocates nothing.
func TestOnPairAppendExtractAllocs(t *testing.T) {
	strs := onpairCorpus()
	d := newOnPair(strs)
	if len(d.pairs) == 0 {
		t.Fatal("corpus promoted no pairs")
	}
	buf := make([]byte, 0, 256)
	var id uint32
	if allocs := testing.AllocsPerRun(100, func() {
		buf = d.AppendExtract(buf[:0], id%uint32(len(strs)))
		id += 37
	}); allocs != 0 {
		t.Fatalf("AppendExtract allocates %.1f times per call", allocs)
	}
}

// TestOnPairWalkMemoBound: a walk's pair memo never holds more than the
// walk has emitted — after stopping at id k its capacity is at most the
// length of strings 0..k, which for k = 0 is string 0's length.
func TestOnPairWalkMemoBound(t *testing.T) {
	strs := onpairCorpus()
	d := newOnPair(strs)
	emitted := 0
	for k, s := range strs[:50] {
		emitted += len(s)
		w := &onpairWalk{d, make([][]byte, len(d.pairs))}
		forEachByExtract(w, d.n, func(id uint32, _ []byte) bool { return int(id) < k })
		held := 0
		for _, b := range w.memo {
			held += cap(b)
		}
		if held > emitted {
			t.Fatalf("walk stopped at %d: memo capacity %d, emitted %d", k, held, emitted)
		}
		if k == 0 && held == 0 {
			t.Fatal("string 0 used no pair: the bound is vacuous")
		}
	}
}
