package ngram

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"strdict/internal/bits"
)

func TestRoundTrip2gram(t *testing.T) {
	parts := [][]byte{
		[]byte("the theme of the thesis"),
		[]byte("there and then"),
		nil,
	}
	c := Train(2, parts)
	for _, p := range parts {
		enc := c.Encode(nil, p)
		if dec := c.Decode(nil, enc); !bytes.Equal(dec, p) {
			t.Errorf("round trip %q -> %q", p, dec)
		}
	}
}

func TestRoundTrip3gram(t *testing.T) {
	parts := [][]byte{[]byte("abcabcabcabc"), []byte("xyzxyz")}
	c := Train(3, parts)
	for _, p := range parts {
		enc := c.Encode(nil, p)
		if dec := c.Decode(nil, enc); !bytes.Equal(dec, p) {
			t.Errorf("round trip %q -> %q", p, dec)
		}
	}
}

func TestCoveredTextCompresses(t *testing.T) {
	// Text of a tiny gram vocabulary: every 2-gram gets a proper code, so the
	// encoding uses 12 bits per 2 chars = 0.75 bytes/char.
	text := []byte(strings.Repeat("abab", 500))
	c := Train(2, [][]byte{text})
	enc := c.Encode(nil, text)
	want := (len(text)/2 + 1) * 12 / 8 // codes + EOS, bytes (rounded down ok)
	if len(enc) > want+2 {
		t.Fatalf("encoded %d bytes, want about %d", len(enc), want)
	}
}

func TestUncoveredTextExpands(t *testing.T) {
	// Random text over the full byte alphabet: with a corpus much larger than
	// the 3839-gram budget, the proper codes cover only a small share of the
	// positions, so most codes are 12-bit backups for single chars ->
	// negative compression, as the paper reports for the rand data sets.
	rng := rand.New(rand.NewSource(4))
	train := make([]byte, 1<<18)
	rng.Read(train)
	c := Train(2, [][]byte{train})
	text := make([]byte, 4096)
	rng.Read(text)
	enc := c.Encode(nil, text)
	if len(enc) <= len(text) {
		t.Fatalf("expected expansion on random text: %d <= %d", len(enc), len(text))
	}
}

func TestGramCapRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	text := make([]byte, 1<<16)
	rng.Read(text)
	c := Train(2, [][]byte{text})
	if c.GramCount() > MaxGrams {
		t.Fatalf("gram count %d exceeds cap %d", c.GramCount(), MaxGrams)
	}
}

func TestRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := make([]byte, 8192)
	rng.Read(train)
	c := Train(3, [][]byte{train})
	f := func(s []byte) bool {
		return bytes.Equal(c.Decode(nil, c.Encode(nil, s)), s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicTraining(t *testing.T) {
	parts := [][]byte{[]byte("banana bandana cabana")}
	a, b := Train(2, parts), Train(2, parts)
	if a.GramCount() != b.GramCount() {
		t.Fatal("training is not deterministic")
	}
	for i := range a.grams {
		if a.grams[i] != b.grams[i] {
			t.Fatalf("gram order differs at %d: %q vs %q", i, a.grams[i], b.grams[i])
		}
	}
}

func TestFromGramsRejectsBadTables(t *testing.T) {
	for name, c := range map[string]struct {
		n     int
		grams []string
	}{
		"n too small":  {1, []string{"a"}},
		"n too large":  {5, []string{"abcde"}},
		"wrong length": {2, []string{"ab", "abc"}},
		"duplicate":    {3, []string{"abc", "xyz", "abc"}},
	} {
		if _, err := FromGrams(c.n, c.grams); err == nil {
			t.Errorf("%s: FromGrams accepted %d-grams %q", name, c.n, c.grams)
		}
	}
	c, err := FromGrams(4, []string{"abcd", "\xff\xff\xff\xff"})
	if err != nil {
		t.Fatal(err)
	}
	src := []byte("abcd\xff\xff\xff\xffabc")
	if dec := c.Decode(nil, c.Encode(nil, src)); !bytes.Equal(dec, src) {
		t.Fatalf("4-gram round trip %q -> %q", src, dec)
	}
	if got := c.CodeCount(src); got != 2+3+1 {
		t.Fatalf("CodeCount = %d, want 6 (two grams, three backups, EOS)", got)
	}
}

// TestCodeCountMatchesEncode: the model's stats-only pricing must count
// exactly the codes the encoder writes.
func TestCodeCountMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	train := make([]byte, 4096)
	for i := range train {
		train[i] = byte('a' + rng.Intn(6))
	}
	for n := 2; n <= 4; n++ {
		c := Train(n, [][]byte{train})
		for l := 0; l < 40; l++ {
			src := train[l : 2*l]
			var w bits.Writer
			c.EncodeTo(&w, src)
			if got, want := c.CodeCount(src), int(w.Len()/CodeBits); got != want {
				t.Fatalf("n=%d len=%d: CodeCount %d, encoder wrote %d codes", n, l, got, want)
			}
		}
	}
}

// TestTrainAllocs keeps n-gram training on flat storage: the number of
// allocations is a small constant — the counting table's doublings, the
// ranking, the gram strings' shared backing, the code table — whether the
// corpus has a few dozen distinct grams or tens of thousands. A map keyed
// by gram strings would allocate per distinct gram.
func TestTrainAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	few, many := make([]byte, 1<<16), make([]byte, 1<<16)
	for i := range few {
		few[i] = byte('a' + rng.Intn(4))
	}
	rng.Read(many)
	for name, text := range map[string][]byte{"few grams": few, "many grams": many} {
		for n := 2; n <= 3; n++ {
			parts := [][]byte{text}
			allocs := testing.AllocsPerRun(3, func() { Train(n, parts) })
			if allocs > 64 {
				t.Errorf("%s, n=%d: Train made %.0f allocations, want at most 64", name, n, allocs)
			}
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	text := []byte("http://example.com/catalog/items?id=12345&sort=asc")
	c := Train(2, [][]byte{text})
	enc := c.Encode(nil, text)
	buf := make([]byte, 0, len(text))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = c.Decode(buf[:0], enc)
	}
}
