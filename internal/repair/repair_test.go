package repair

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func toParts(strs ...string) [][]byte {
	parts := make([][]byte, len(strs))
	for i, s := range strs {
		parts[i] = []byte(s)
	}
	return parts
}

// trainRoundTrip trains on parts and verifies every training sequence
// decodes back to its original part.
func trainRoundTrip(t *testing.T, symbolBits uint, parts [][]byte) *Grammar {
	t.Helper()
	g, seqs := Train(parts, symbolBits)
	if len(seqs) != len(parts) {
		t.Fatalf("got %d sequences for %d parts", len(seqs), len(parts))
	}
	for i, seq := range seqs {
		enc := g.EncodeSeq(nil, seq)
		dec := g.Decode(nil, enc)
		if !bytes.Equal(dec, parts[i]) {
			t.Fatalf("part %d: decoded %q, want %q (seq %v)", i, dec, parts[i], seq)
		}
	}
	return g
}

func TestTrainRoundTripSimple(t *testing.T) {
	trainRoundTrip(t, 12, toParts("abcabcabc", "abcabc", "xyz", ""))
}

func TestTrainRoundTripRuns(t *testing.T) {
	// Runs of equal symbols exercise the overlapping-pair handling.
	trainRoundTrip(t, 12, toParts("aaaa", "aaa", "aaaaaaaa", "baaab"))
}

func TestTrainRoundTripSingleChar(t *testing.T) {
	trainRoundTrip(t, 12, toParts("a", "b", "c"))
}

func TestCompressionOnRedundantText(t *testing.T) {
	line := "for (int i = 0; i < n; i++) { sum += data[i]; }"
	parts := make([][]byte, 200)
	for i := range parts {
		parts[i] = []byte(line)
	}
	g, seqs := Train(parts, 12)
	if g.RuleCount() == 0 {
		t.Fatal("expected rules on redundant text")
	}
	// Identical lines must compress to very short sequences.
	for _, seq := range seqs {
		if len(seq) > len(line)/4 {
			t.Fatalf("sequence of length %d for a %d-char fully redundant line", len(seq), len(line))
		}
	}
}

func TestPairsNeverCrossBoundaries(t *testing.T) {
	// "ab" appears twice but split across parts ("…a" + "b…"): the pair (a,b)
	// occurs only through the boundary and must not become a rule.
	parts := toParts("xa", "bx", "ya", "by")
	g, _ := Train(parts, 12)
	for _, r := range g.rules {
		if r.Left == 'a' && r.Right == 'b' {
			t.Fatal("rule (a,b) crosses a string boundary")
		}
	}
}

func TestRuleCapacity12(t *testing.T) {
	// Highly varied text could want more rules than 12 bits allow.
	rng := rand.New(rand.NewSource(77))
	var parts [][]byte
	for i := 0; i < 400; i++ {
		b := make([]byte, 300)
		for j := range b {
			b[j] = byte('a' + rng.Intn(20))
		}
		// duplicate each part so pairs repeat
		parts = append(parts, b, b)
	}
	g := trainRoundTrip(t, 12, parts)
	if g.RuleCount() > MaxRules(12) {
		t.Fatalf("rule count %d exceeds capacity %d", g.RuleCount(), MaxRules(12))
	}
}

func Test16BitHoldsMoreRules(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var parts [][]byte
	for i := 0; i < 500; i++ {
		b := make([]byte, 400)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		parts = append(parts, b, b)
	}
	g12, _ := Train(parts, 12)
	g16, _ := Train(parts, 16)
	if g16.RuleCount() < g12.RuleCount() {
		t.Fatalf("16-bit grammar has fewer rules (%d) than 12-bit (%d)", g16.RuleCount(), g12.RuleCount())
	}
}

func TestEncodeArbitraryRoundTrip(t *testing.T) {
	parts := toParts("the quick brown fox", "the quick red fox", "the slow brown dog")
	g, _ := Train(parts, 12)
	probe := []byte("the quick brown dog") // not in corpus
	enc := g.Encode(nil, probe)
	if dec := g.Decode(nil, enc); !bytes.Equal(dec, probe) {
		t.Fatalf("decoded %q", dec)
	}
}

func TestTrainRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		parts := make([][]byte, n)
		for i := range parts {
			l := r.Intn(60)
			b := make([]byte, l)
			for j := range b {
				b[j] = byte('a' + r.Intn(4)) // tiny alphabet -> many pairs
			}
			parts[i] = b
		}
		g, seqs := Train(parts, 12)
		for i, seq := range seqs {
			if !bytes.Equal(g.Decode(nil, g.EncodeSeq(nil, seq)), parts[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestDecodeEmptySequence(t *testing.T) {
	g, seqs := Train(toParts(""), 12)
	enc := g.EncodeSeq(nil, seqs[0])
	if dec := g.Decode(nil, enc); len(dec) != 0 {
		t.Fatalf("decoded %q from empty part", dec)
	}
}

func TestLargeCorpusTrains(t *testing.T) {
	if testing.Short() {
		t.Skip("large corpus")
	}
	var sb strings.Builder
	words := []string{"select", "from", "where", "group", "order", "limit", "join", "table"}
	rng := rand.New(rand.NewSource(19))
	var parts [][]byte
	for i := 0; i < 5000; i++ {
		sb.Reset()
		for w := 0; w < 6; w++ {
			sb.WriteString(words[rng.Intn(len(words))])
			sb.WriteByte(' ')
		}
		parts = append(parts, []byte(sb.String()))
	}
	g, seqs := Train(parts, 16)
	var rawLen, compSyms int
	for i, seq := range seqs {
		rawLen += len(parts[i])
		compSyms += len(seq)
		if i%500 == 0 {
			if !bytes.Equal(g.Decode(nil, g.EncodeSeq(nil, seq)), parts[i]) {
				t.Fatalf("round trip failed at part %d", i)
			}
		}
	}
	// 16-bit symbols: compressed bits = 16*syms, raw bits = 8*len.
	if compSyms*2 >= rawLen {
		t.Fatalf("no effective compression: %d symbols for %d bytes", compSyms, rawLen)
	}
}

func BenchmarkExpand(b *testing.B) {
	line := "SELECT l_orderkey, SUM(l_extendedprice) FROM lineitem GROUP BY l_orderkey"
	parts := make([][]byte, 100)
	for i := range parts {
		parts[i] = []byte(line)
	}
	g, seqs := Train(parts, 12)
	enc := g.EncodeSeq(nil, seqs[0])
	buf := make([]byte, 0, len(line))
	b.SetBytes(int64(len(line)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.Decode(buf[:0], enc)
	}
}

// doublingRules is rule 0 = ('a', 'a') and rule i = (rule i-1, rule i-1):
// rule i expands to 2^(i+1) bytes.
func doublingRules(n int) []Rule {
	rules := []Rule{{Left: 'a', Right: 'a'}}
	for i := 1; i < n; i++ {
		rules = append(rules, Rule{Left: int32(firstRuleSym + i - 1), Right: int32(firstRuleSym + i - 1)})
	}
	return rules
}

// TestExpansionBound: FromRules accepts a doubling rule table up to the
// rule that expands to exactly MaxExpansion bytes and rejects it one rule
// later, and training over a run of one byte longer than MaxExpansion
// forms no rule past the bound, so what a build writes always reads back.
func TestExpansionBound(t *testing.T) {
	if _, err := FromRules(16, doublingRules(16)); err != nil { // rule 15: 2^16 bytes
		t.Fatalf("doubling rules up to MaxExpansion bytes: %v", err)
	}
	if _, err := FromRules(16, doublingRules(17)); err == nil {
		t.Fatal("FromRules accepted a rule of 2*MaxExpansion bytes")
	}
	if _, err := FromRules(16, doublingRules(60)); err == nil {
		t.Fatal("FromRules accepted a rule of 2^60 bytes")
	}

	part := bytes.Repeat([]byte("a"), 3*MaxExpansion+5)
	g, seqs := Train([][]byte{part}, 16)
	restored, err := FromRules(16, g.Rules())
	if err != nil {
		t.Fatalf("FromRules rejects the rules Train built: %v", err)
	}
	for i := range g.Rules() {
		if n := len(g.Expand(nil, int32(firstRuleSym+i))); n > MaxExpansion {
			t.Fatalf("Train formed rule %d of %d bytes", i, n)
		}
	}
	if got := restored.Decode(nil, g.EncodeSeq(nil, seqs[0])); !bytes.Equal(got, part) {
		t.Fatalf("round trip of %d bytes decoded to %d", len(part), len(got))
	}
}
