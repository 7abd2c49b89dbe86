package dict

import (
	"fmt"
	"testing"

	"strdict/internal/bits"
)

func TestForEachMatchesExtract(t *testing.T) {
	for name, strs := range testCorpora() {
		for _, f := range AllFormats() {
			d, err := Build(f, strs)
			if err != nil {
				t.Fatal(err)
			}
			var visited int
			d.ForEach(func(id uint32, value []byte) bool {
				if id != uint32(visited) {
					t.Fatalf("%s/%s: visited id %d, want %d", f, name, id, visited)
				}
				if string(value) != strs[id] {
					t.Fatalf("%s/%s: ForEach(%d) = %q, want %q", f, name, id, value, strs[id])
				}
				visited++
				return true
			})
			if visited != len(strs) {
				t.Fatalf("%s/%s: visited %d of %d", f, name, visited, len(strs))
			}
		}
	}
}

func TestForEachEarlyStop(t *testing.T) {
	strs := []string{"a", "b", "c", "d", "e"}
	for _, f := range AllFormats() {
		d, _ := Build(f, strs)
		var visited int
		d.ForEach(func(id uint32, value []byte) bool {
			visited++
			return visited < 3
		})
		if visited != 3 {
			t.Errorf("%s: visited %d after early stop, want 3", f, visited)
		}
	}
}

func TestForEachHashDict(t *testing.T) {
	strs := []string{"x", "y", "z"}
	d, err := BuildHash(strs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	d.ForEach(func(id uint32, value []byte) bool {
		got = append(got, string(value))
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(strs) {
		t.Fatalf("got %v", got)
	}
}

// BenchmarkSequentialScan shows the paper's fc inline design point:
// sequential ForEach vs per-entry Extract on front-coded formats — and on
// OnPair, whose walk expands each pair once.
func BenchmarkSequentialScan(b *testing.B) {
	var strs []string
	for i := 0; i < 20000; i++ {
		strs = append(strs, fmt.Sprintf("https://example.com/items/%08d", i))
	}
	for _, f := range []Format{FCInline, FCBlock, Array, OnPair} {
		d, _ := Build(f, strs)
		b.Run(f.String()+"/foreach", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.ForEach(func(uint32, []byte) bool { return true })
			}
		})
		b.Run(f.String()+"/extract-loop", func(b *testing.B) {
			var buf []byte
			for i := 0; i < b.N; i++ {
				for id := 0; id < d.Len(); id++ {
					buf = d.AppendExtract(buf[:0], uint32(id))
				}
			}
		})
	}
}

// TestForEachTruncatedFC: a front-coding blob whose data area ends after the
// block's first string still has well-formed headers and block pointers, so
// Unmarshal accepts it. Every reader must then survive the walk past the end
// of the data — ForEach in inline mode used to index one byte beyond it.
func TestForEachTruncatedFC(t *testing.T) {
	for _, tc := range []struct {
		format Format
		cut    int // header bytes + the encoded first string "a\x00"
	}{
		{FCBlock, 2 + 2},
		{FCBlockDF, 4 + 2*5 + 2},
		{FCInline, 2},
	} {
		built, err := Build(tc.format, []string{"a", "b", "c"})
		if err != nil {
			t.Fatal(err)
		}
		fd := built.(*fcDict)
		fd.data = fd.data[:tc.cut]
		fd.blockPtrs = bits.PackSlice([]uint64{0, uint64(tc.cut)})
		blob, err := Marshal(fd)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("%s: truncated blob rejected (%v); the test needs a blob Unmarshal accepts", tc.format, err)
		}
		for id := 0; id < d.Len(); id++ {
			d.Extract(uint32(id))
		}
		d.Locate("b")
		LocateBytes(d, []byte("b"))
		var first string
		d.ForEach(func(id uint32, value []byte) bool {
			if id == 0 {
				first = string(value)
			}
			return true
		})
		if first != "a" {
			t.Errorf("%s: ForEach(0) = %q, want %q", tc.format, first, "a")
		}
	}
}
