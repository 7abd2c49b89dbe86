package intcomp

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// testVectors builds one value sequence per shape the packers care about.
func testVectors() map[string][]uint64 {
	rng := rand.New(rand.NewSource(7))
	random := make([]uint64, 5000)
	for i := range random {
		random[i] = uint64(rng.Intn(1 << 20))
	}
	sorted := make([]uint64, 5000)
	for i := range sorted {
		sorted[i] = uint64(i/7) + 1000
	}
	runs := make([]uint64, 5000)
	for i := range runs {
		runs[i] = uint64(i / 500)
	}
	return map[string][]uint64{
		"empty":    nil,
		"single":   {42},
		"constant": {9, 9, 9, 9, 9, 9, 9},
		"random":   random,
		"sorted":   sorted,
		"runs":     runs,
	}
}

func assertEqualVector(t *testing.T, want []uint64, got Vector) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", got.Len(), len(want))
	}
	for i, w := range want {
		if g := got.Get(i); g != w {
			t.Fatalf("Get(%d) = %d, want %d", i, g, w)
		}
	}
}

func TestVectorRoundTrip(t *testing.T) {
	for name, values := range testVectors() {
		packers := map[string]func([]uint64) Vector{
			"bits": PackBits,
			"rle":  PackRLE,
			"for":  PackFOR,
			"auto": PackAuto,
		}
		for pname, pack := range packers {
			v := pack(values)
			blob, err := Marshal(v)
			if err != nil {
				t.Fatalf("%s/%s: Marshal: %v", name, pname, err)
			}
			got, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("%s/%s: Unmarshal: %v", name, pname, err)
			}
			assertEqualVector(t, values, got)
			// The representation round-trips, not just the values.
			blob2, err := Marshal(got)
			if err != nil {
				t.Fatalf("%s/%s: re-Marshal: %v", name, pname, err)
			}
			if !bytes.Equal(blob, blob2) {
				t.Fatalf("%s/%s: serialization not stable", name, pname)
			}
		}
	}
}

// legacyConcat is Marshal(Concat(Concat(PackAuto(a), PackRLE(b)),
// PackFOR(c))) with a, b and c as in TestLegacyConcatDecodes, as written by
// the builds whose identity partial folds appended codes to the main vector
// as parts: tag 4, three parts (packed, RLE, FOR). Nothing writes that tag
// any more; never regenerate these bytes.
var legacyConcat = []byte{
	0x01, 0x04, 0x03, 0x00, 0x00, 0x00, 0x01, 0x03, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0xd1, 0x58, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x04, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x00, 0x00, 0x03, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00,
	0x07, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
	0x00, 0x08, 0x08, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0xc8, 0x00, 0x00,
	0x00, 0x00, 0x00,
}

// TestLegacyConcatDecodes: a concatenation written by earlier builds
// decodes to its parts' values in order, as one flat vector that
// re-marshals without the concat tag.
func TestLegacyConcatDecodes(t *testing.T) {
	a := []uint64{1, 2, 3, 4, 5}
	b := []uint64{9, 9, 9, 9, 9, 9, 9, 9}
	c := []uint64{100, 200, 300}
	want := append(append(append([]uint64{}, a...), b...), c...)

	got, err := Unmarshal(legacyConcat)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	assertEqualVector(t, want, got)
	blob, err := Marshal(got)
	if err != nil {
		t.Fatalf("re-Marshal: %v", err)
	}
	if blob[1] == tagConcat {
		t.Fatal("decoded legacy concatenation re-marshals as a concatenation")
	}
	if want, _ := Marshal(PackAuto(want)); !bytes.Equal(blob, want) {
		t.Fatal("legacy concatenation did not decode to PackAuto of its values")
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{vectorVersion},
		{99, tagPacked},                         // bad version
		{vectorVersion, 77},                     // bad tag
		{vectorVersion, tagRLE},                 // truncated header
		{vectorVersion, tagFOR},                 // truncated header
		{vectorVersion, tagConcat, 0, 0, 0, 0},  // empty concat
		{vectorVersion, tagConcat, 65, 0, 0, 0}, // more parts than the writer made
	}
	// A nested concatenation, an empty part and a total past
	// maxConcatElements, each in an otherwise valid one-part list.
	onePart := func(part []byte) []byte {
		return append([]byte{vectorVersion, tagConcat, 1, 0, 0, 0}, part[1:]...)
	}
	empty, _ := Marshal(PackBits(nil))
	huge, _ := Marshal(PackRLE([]uint64{7}))
	binary.LittleEndian.PutUint64(huge[2:], maxConcatElements+1)
	cases = append(cases, onePart(legacyConcat), onePart(empty), onePart(huge))
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}

	// Truncating a valid blob at any offset must error, never panic.
	blob, err := Marshal(PackAuto(testVectors()["sorted"]))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{blob, legacyConcat} {
		for cut := 0; cut < len(b); cut++ {
			if _, err := Unmarshal(b[:cut]); err == nil {
				t.Fatalf("truncation at %d of %d bytes accepted", cut, len(b))
			}
		}
	}
	// Trailing bytes are rejected too.
	if _, err := Unmarshal(append(append([]byte{}, blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestUnmarshalRejectsBadRuns(t *testing.T) {
	// Hand-build an RLE vector whose starts are not ascending; Marshal would
	// never produce it, so corrupt it at the byte level instead: flip the
	// second run start to 0 (== first) and check Unmarshal rejects it.
	v := PackRLE([]uint64{5, 5, 7, 7, 9})
	blob, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	rv := got.(rleVector)
	rv.starts.Set(1, 0)
	if err := rv.validate(); err == nil {
		t.Fatal("non-ascending run starts accepted")
	}
}

// FuzzUnmarshalPacked fuzzes the vector deserializer, seeded from real code
// vectors in every packed representation and from the legacy
// concatenation. Unmarshal must never panic; on success, Get over the full
// length must stay in bounds.
func FuzzUnmarshalPacked(f *testing.F) {
	for _, values := range testVectors() {
		for _, pack := range []func([]uint64) Vector{PackBits, PackRLE, PackFOR} {
			if blob, err := Marshal(pack(values)); err == nil {
				f.Add(blob)
			}
		}
	}
	f.Add(legacyConcat)

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Unmarshal(data)
		if err != nil {
			return
		}
		var sum uint64
		for i := 0; i < v.Len(); i++ {
			sum += v.Get(i)
		}
		_ = sum
		blob, err := Marshal(v)
		if err != nil {
			t.Fatalf("decoded vector does not re-marshal: %v", err)
		}
		v2, err := Unmarshal(blob)
		if err != nil {
			t.Fatalf("re-marshaled vector does not decode: %v", err)
		}
		if v2.Len() != v.Len() {
			t.Fatalf("round-trip length %d != %d", v2.Len(), v.Len())
		}
	})
}
