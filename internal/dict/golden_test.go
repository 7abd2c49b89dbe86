package dict

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"strdict/internal/datagen"
	"strdict/internal/golden"
)

// TestBuildGolden pins the serialized bytes of the nine formats whose build
// trains a Re-Pair grammar, an n-gram table or an OnPair pair table, as one
// FNV-64a digest of Marshal(Build(f, corpus)) per corpus. The digests were
// generated on the map- and container/heap-based trainers; the flat
// trainers that replaced them must build the same bytes.
func TestBuildGolden(t *testing.T) {
	formats := []Format{
		ArrayNG2, ArrayNG3, ArrayRP12, ArrayRP16,
		FCBlockNG2, FCBlockNG3, FCBlockRP12, FCBlockRP16, OnPair,
	}
	var buf bytes.Buffer
	for _, name := range datagen.Names() {
		strs := datagen.Generate(name, 6000, 1)
		for _, f := range formats {
			d, err := Build(f, strs)
			if err != nil {
				t.Fatalf("%s on %s: %v", f, name, err)
			}
			blob, err := Marshal(d)
			if err != nil {
				t.Fatalf("%s on %s: marshal: %v", f, name, err)
			}
			h := fnv.New64a()
			h.Write(blob)
			fmt.Fprintf(&buf, "%s\t%s\t%d\t%016x\n", name, f, len(blob), h.Sum64())
		}
	}
	golden.Check(t, "testdata/build.golden", buf.Bytes())
}
