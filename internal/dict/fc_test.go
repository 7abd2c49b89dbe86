package dict

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fcFormats lists every front-coding variant.
func fcFormats() []Format {
	var out []Format
	for _, f := range AllFormats() {
		if f.IsFrontCoded() {
			out = append(out, f)
		}
	}
	return out
}

func TestFCBlockSizesRoundTrip(t *testing.T) {
	var strs []string
	for i := 0; i < 500; i++ {
		strs = append(strs, fmt.Sprintf("/var/log/app/%04d/part-%02d.log", i/10, i%10))
	}
	strs = sortedUnique(strs)
	for _, f := range fcFormats() {
		for _, bs := range []int{2, 3, 8, 16, 64, 1000} {
			d, err := BuildWithFCBlockSize(f, strs, bs)
			if err != nil {
				t.Fatalf("%s bs=%d: %v", f, bs, err)
			}
			for i, want := range strs {
				if got := d.Extract(uint32(i)); got != want {
					t.Fatalf("%s bs=%d: Extract(%d) = %q want %q", f, bs, i, got, want)
				}
			}
			for _, probe := range []string{strs[0], strs[len(strs)/2], strs[len(strs)-1], "zzz", ""} {
				id, found := d.Locate(probe)
				wantID, wantFound := referenceLocate(strs, probe)
				if id != wantID || found != wantFound {
					t.Fatalf("%s bs=%d: Locate(%q) = (%d,%v) want (%d,%v)",
						f, bs, probe, id, found, wantID, wantFound)
				}
			}
		}
	}
}

func referenceLocate(strs []string, probe string) (uint32, bool) {
	for i, s := range strs {
		if s == probe {
			return uint32(i), true
		}
		if s > probe {
			return uint32(i), false
		}
	}
	return uint32(len(strs)), false
}

func TestFCBlockSizeTradeoff(t *testing.T) {
	// Bigger blocks must compress at least as well (fewer block pointers
	// and headers, more shared prefixes) on a prefix-heavy corpus.
	var strs []string
	for i := 0; i < 4096; i++ {
		strs = append(strs, fmt.Sprintf("https://example.com/catalog/item/%08d", i))
	}
	small, err := BuildWithFCBlockSize(FCBlock, strs, 4)
	if err != nil {
		t.Fatal(err)
	}
	big, err := BuildWithFCBlockSize(FCBlock, strs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if big.Bytes() >= small.Bytes() {
		t.Errorf("block 64 (%d bytes) not smaller than block 4 (%d bytes)",
			big.Bytes(), small.Bytes())
	}
}

func TestFCRejectsBadBlockSize(t *testing.T) {
	if _, err := BuildWithFCBlockSize(FCBlock, []string{"a"}, 1); err == nil {
		t.Fatal("accepted block size 1")
	}
	if _, err := BuildWithFCBlockSize(Array, []string{"a"}, 8); err == nil {
		t.Fatal("accepted non-front-coded format")
	}
}

func TestFCModesAgree(t *testing.T) {
	// All three layouts are different encodings of the same mapping.
	rng := rand.New(rand.NewSource(17))
	var strs []string
	for i := 0; i < 300; i++ {
		strs = append(strs, fmt.Sprintf("%s-%06d", []string{"inv", "ord", "cust"}[rng.Intn(3)], rng.Intn(100000)))
	}
	strs = sortedUnique(strs)
	prev, _ := Build(FCBlock, strs)
	df, _ := Build(FCBlockDF, strs)
	inline, _ := Build(FCInline, strs)
	for i := range strs {
		a, b, c := prev.Extract(uint32(i)), df.Extract(uint32(i)), inline.Extract(uint32(i))
		if a != b || b != c {
			t.Fatalf("modes disagree at %d: %q / %q / %q", i, a, b, c)
		}
	}
	// df trades space for speed: it may not be smaller than fc block.
	if df.Bytes() < prev.Bytes()/2 {
		t.Errorf("fc block df (%d) suspiciously smaller than fc block (%d)", df.Bytes(), prev.Bytes())
	}
}

func TestFCLastBlockPartial(t *testing.T) {
	// n = k*blockSize + 1 leaves a one-string final block.
	var strs []string
	for i := 0; i < DefaultFCBlockSize*2+1; i++ {
		strs = append(strs, fmt.Sprintf("x%04d", i))
	}
	for _, f := range fcFormats() {
		d, err := Build(f, strs)
		if err != nil {
			t.Fatal(err)
		}
		last := uint32(len(strs) - 1)
		if got := d.Extract(last); got != strs[last] {
			t.Fatalf("%s: last-block extract %q", f, got)
		}
		if id, found := d.Locate(strs[last]); !found || id != last {
			t.Fatalf("%s: last-block locate (%d,%v)", f, id, found)
		}
	}
}

func TestFCVeryLongStrings(t *testing.T) {
	// Strings far longer than the 255-byte prefix cap, shared prefixes
	// crossing the cap, and a suffix of several KiB.
	base := strings.Repeat("abcdefgh", 100) // 800 bytes
	strs := []string{
		base + strings.Repeat("x", 4000),
		base + strings.Repeat("y", 2000),
		base + strings.Repeat("z", 1000) + "1",
		base + strings.Repeat("z", 1000) + "2",
	}
	for _, f := range fcFormats() {
		d, err := Build(f, strs)
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range strs {
			if got := d.Extract(uint32(i)); got != want {
				t.Fatalf("%s: long string %d mismatch (len %d vs %d)", f, i, len(got), len(want))
			}
		}
	}
}

func TestFCSingleStringPerBlock(t *testing.T) {
	// blockSize 2 with 1 string: a single block holding only the first.
	d, err := BuildWithFCBlockSize(FCBlockDF, []string{"solo"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Extract(0) != "solo" {
		t.Fatal("single-string df block")
	}
}

// countingCodec counts the strings its codec decodes.
type countingCodec struct {
	codec
	decodes *int
}

func (c countingCodec) decodeNext(dst, enc []byte) ([]byte, int) {
	*c.decodes++
	return c.codec.decodeNext(dst, enc)
}

// TestFCDecodeCounts pins the front-coding reader's work in decodes, which
// repeat exactly where timings do not: a locate is a block-head binary search
// plus one walk of one block, an extract walks from its block head (df jumps
// there through its suffix-end table), and ForEach decodes every string once.
func TestFCDecodeCounts(t *testing.T) {
	for name, strs := range testCorpora() {
		probes := []string{"", "\x01", "\xff\xff"}
		for _, s := range strs {
			probes = append(probes, s, s+"\x01")
		}
		for _, f := range fcFormats() {
			for _, bs := range []int{2, 3, 16, 17} {
				built, err := BuildWithFCBlockSize(f, strs, bs)
				if err != nil {
					t.Fatal(err)
				}
				d := built.(*fcDict)
				var decodes int
				d.c = countingCodec{d.c, &decodes}
				nblocks := (d.n + bs - 1) / bs
				log2 := 0
				for 1<<log2 < nblocks {
					log2++
				}
				for _, p := range probes {
					decodes = 0
					d.Locate(p)
					if max := bs + log2 + 1; decodes > max {
						t.Fatalf("%s/%s bs=%d: Locate(%q) decoded %d strings, want <= %d", f, name, bs, p, decodes, max)
					}
				}
				var buf []byte
				for id := 0; id < d.n; id++ {
					decodes = 0
					buf = d.AppendExtract(buf[:0], uint32(id))
					max := id%bs + 1
					if d.mode == fcModeFirst {
						max = min(max, 2)
					}
					if decodes > max {
						t.Fatalf("%s/%s bs=%d: AppendExtract(%d) decoded %d strings, want <= %d", f, name, bs, id, decodes, max)
					}
				}
				decodes = 0
				d.ForEach(func(uint32, []byte) bool { return true })
				if decodes != d.n {
					t.Fatalf("%s/%s bs=%d: ForEach decoded %d strings, want %d", f, name, bs, decodes, d.n)
				}
			}
		}
	}
}

// TestFCForEachAllocs: a front-coding walk reuses one buffer across blocks,
// so its allocations do not grow with the number of blocks.
func TestFCForEachAllocs(t *testing.T) {
	allocs := func(f Format, n int) float64 {
		var strs []string
		for i := 0; i < n; i++ {
			strs = append(strs, fmt.Sprintf("key-%06d", i))
		}
		d, err := Build(f, strs)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			d.ForEach(func(uint32, []byte) bool { return true })
		})
	}
	for _, f := range fcFormats() {
		if few, many := allocs(f, 4*DefaultFCBlockSize), allocs(f, 256*DefaultFCBlockSize); many > few {
			t.Errorf("%s: ForEach allocates %.0f times over 256 blocks, %.0f over 4", f, many, few)
		}
	}
}

// TestFCAppendExtractInPlace: an extract lands right after dst's bytes both
// when it fits dst's spare capacity and when it outgrows it.
func TestFCAppendExtractInPlace(t *testing.T) {
	strs := testCorpora()["prefixed words"]
	for _, f := range fcFormats() {
		d, err := Build(f, strs)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []int{3, 64} {
			for id, want := range strs {
				dst := append(make([]byte, 0, c), "pre"...)
				if got := string(d.AppendExtract(dst, uint32(id))); got != "pre"+want {
					t.Fatalf("%s cap %d: AppendExtract(%d) = %q, want %q", f, c, id, got, "pre"+want)
				}
			}
		}
	}
}

// TestFCForEachStopsAtBlockEnd: a walk that fn stops on the last string of
// a block does not go on into the next block.
func TestFCForEachStopsAtBlockEnd(t *testing.T) {
	strs := testCorpora()["exact blocks"]
	for _, f := range fcFormats() {
		d, err := Build(f, strs)
		if err != nil {
			t.Fatal(err)
		}
		var visited int
		d.ForEach(func(id uint32, _ []byte) bool {
			visited++
			return id != DefaultFCBlockSize-1
		})
		if visited != DefaultFCBlockSize {
			t.Errorf("%s: visited %d after stopping at id %d", f, visited, DefaultFCBlockSize-1)
		}
	}
}
