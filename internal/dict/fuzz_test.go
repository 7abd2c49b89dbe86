package dict

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"
	"strings"
	"sync"
	"testing"

	"strdict/internal/bits"
	"strdict/internal/repair"
)

// fuzzStrings derives a valid dictionary input from raw fuzz bytes.
func fuzzStrings(data []byte) []string {
	fields := strings.Split(string(data), "\n")
	seen := make(map[string]bool)
	var out []string
	for _, f := range fields {
		if !seen[f] && !strings.ContainsRune(f, 0) {
			seen[f] = true
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// FuzzBuildRoundTrip builds every format over fuzz-derived string sets and
// checks extract/locate against the input. It doubles as a Marshal/Unmarshal
// round-trip check for a rotating format.
func FuzzBuildRoundTrip(f *testing.F) {
	f.Add([]byte("alpha\nbeta\ngamma"))
	f.Add([]byte(""))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte("a\naa\naaa\naaaa\nab"))
	f.Add([]byte("0001\n0002\n0003\n0004\n0005\n0006\n0007\n0008"))
	f.Add([]byte{0xff, 0xfe, '\n', 0x01, 0x02})

	f.Fuzz(func(t *testing.T, data []byte) {
		strs := fuzzStrings(data)
		for _, format := range AllFormats() {
			d, err := Build(format, strs)
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			for i, want := range strs {
				if got := d.Extract(uint32(i)); got != want {
					t.Fatalf("%s: Extract(%d) = %q, want %q", format, i, got, want)
				}
				if id, found := d.Locate(want); !found || id != uint32(i) {
					t.Fatalf("%s: Locate(%q) = (%d,%v)", format, want, id, found)
				}
			}
			// Serialization round trip on one format per input, chosen by
			// the input's length so all formats get exercised over a corpus.
			if int(format) == len(data)%NumFormats() {
				blob, err := Marshal(d)
				if err != nil {
					t.Fatalf("%s: Marshal: %v", format, err)
				}
				rd, err := Unmarshal(blob)
				if err != nil {
					t.Fatalf("%s: Unmarshal: %v", format, err)
				}
				for i, want := range strs {
					if got := rd.Extract(uint32(i)); got != want {
						t.Fatalf("%s: restored Extract(%d) = %q", format, i, got)
					}
				}
			}
		}
	})
}

// FuzzUnmarshal feeds arbitrary bytes to Unmarshal: it must never panic,
// and any dictionary it accepts must be safe to read.
func FuzzUnmarshal(f *testing.F) {
	for _, strs := range [][]string{
		{"a", "b", "c"},
		{"x"},
		nil,
	} {
		for _, format := range AllFormats() {
			d, _ := Build(format, strs)
			blob, _ := Marshal(d)
			f.Add(blob)
		}
	}
	f.Add([]byte("SDIC"))
	f.Add([]byte{})
	// OnPair pair j = (255+j, 255+j): each pair doubles the last, one past
	// the depth and length a build can reach.
	f.Add(onpairBlob(f, doublingPairs(onpairRounds+1)))
	// Re-Pair rule i = (i-1, i-1): 2^41 bytes from 40 rules.
	f.Add(repairDoublingBlob(f, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Unmarshal(data)
		if err != nil {
			return
		}
		n := d.Len()
		if n > 1<<20 {
			n = 1 << 20
		}
		for i := 0; i < n; i++ {
			d.Extract(uint32(i))
		}
		d.Locate("probe")
		LocateBytes(d, []byte("probe"))
		// One reader means one answer: a walk reads what an extract reads,
		// even from a corrupt blob.
		d.ForEach(func(id uint32, value []byte) bool {
			if want := d.Extract(id); string(value) != want {
				t.Fatalf("%s: ForEach(%d) = %q, Extract = %q", d.Format(), id, value, want)
			}
			return int(id) < n
		})
	})
}

// repairDoublingBlob marshals a one-string array rp 16 dictionary whose
// rule table doubles n times — rule 0 = ('a', 'a'), rule i = (rule i-1,
// rule i-1), 2^(i+1) bytes — and whose string is the last rule. FromRules
// cannot build such a grammar, so the rules are spliced into the blob of a
// rule-less one, where the rule table ends the payload.
func repairDoublingBlob(t testing.TB, n int) []byte {
	g, err := repair.FromRules(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	data := g.EncodeSeq(nil, []int32{int32(256 + n)}) // rule n-1
	blob, err := Marshal(&arrayDict{format: ArrayRP16, n: 1, data: data,
		offsets: bits.PackSlice([]uint64{0, uint64(len(data))}), c: repairCodec{g}})
	if err != nil {
		t.Fatal(err)
	}
	blob = blob[:len(blob)-8] // the rule count (0) and the CRC
	blob = binary.LittleEndian.AppendUint32(blob, uint32(n))
	for i := 0; i < n; i++ {
		child := uint32('a')
		if i > 0 {
			child = uint32(256 + i)
		}
		blob = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(blob, child), child)
	}
	return binary.LittleEndian.AppendUint32(blob, crc32.Checksum(blob, crcTable))
}

// TestRepairExpansionBound: a doubling rule table reads back up to the rule
// of repair.MaxExpansion bytes and is rejected from the next rule on, long
// before its expansion could exhaust memory.
func TestRepairExpansionBound(t *testing.T) {
	d, err := Unmarshal(repairDoublingBlob(t, 16))
	if err != nil {
		t.Fatalf("16 doubling rules: %v", err)
	}
	if got := d.Extract(0); got != strings.Repeat("a", repair.MaxExpansion) {
		t.Fatalf("16 doubling rules extract %d bytes, want %d", len(got), repair.MaxExpansion)
	}
	for _, n := range []int{17, 40} {
		if _, err := Unmarshal(repairDoublingBlob(t, n)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d doubling rules: err %v, want ErrCorrupt", n, err)
		}
	}
}

// TestConcurrentReads verifies that a built dictionary is safe for parallel
// readers (the read-optimized store serves many queries at once).
func TestConcurrentReads(t *testing.T) {
	strs := testCorpora()["prefixed words"]
	for _, format := range []Format{Array, ArrayHU, FCBlock, FCBlockRP12, ColumnBC} {
		d, err := Build(format, strs)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				var buf []byte
				for i := 0; i < 2000; i++ {
					id := uint32((i*7 + g*13) % d.Len())
					buf = d.AppendExtract(buf[:0], id)
					if string(buf) != strs[id] {
						errs <- format.String()
						return
					}
					if i%37 == 0 {
						if got, found := d.Locate(strs[id]); !found || got != id {
							errs <- format.String()
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for f := range errs {
			t.Fatalf("%s: concurrent read mismatch", f)
		}
	}
}

// TestDecodeNextStopsAtEnd: a corrupt stream that runs off its buffer before
// EOS still decodes to a short string in every scheme. Past the end the bit
// reader yields zeros, which n-gram, Huffman and Re-Pair decode as a
// character, so their loops must stop at the end rather than at EOS
// (FuzzUnmarshal found it on an fc block rp 16 blob).
func TestDecodeNextStopsAtEnd(t *testing.T) {
	parts := [][]byte{[]byte("abc"), []byte("abd"), []byte("\x01zz")}
	for s := SchemeNone; s <= SchemeRP16; s++ {
		for _, orderPreserving := range []bool{false, true} {
			c, _ := buildCodec(s, parts, orderPreserving)
			if out, used := c.decodeNext(nil, make([]byte, 4)); len(out) > 4*8*3 || used > 4 {
				t.Errorf("%s: decoded %d bytes from 4 without EOS, consumed %d", s, len(out), used)
			}
		}
	}
}
