package persist

// Write-side byte compatibility for numeric columns. The golden stores prove
// that current code reads what older code wrote; testdata/numeric-write-v1
// proves the other direction: the bytes below were produced by the code
// before numeric columns became one generic type, and the public write path
// (Open → AddInt64/AddFloat64 → Append → Checkpoint) must still produce
// exactly them — part kinds 1/2, record kinds 3/4 (appInt/appFloat) and 7/8
// (ddlInt/ddlFloat), and the manifest entries naming them. Never regenerate
// the fixture from current code.

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// numericWriteBytes drives the public write path over a two-column store
// and returns what reached disk: both part files, the manifest, and the
// frames of every numeric DDL and append record in WAL order.
func numericWriteBytes(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	s := openSync(t, dir)
	tb := s.AddTable("t")
	ic := tb.AddInt64("i")
	fc := tb.AddFloat64("f")
	ints := []int64{0, 1, -1, -42, math.MinInt64, math.MaxInt64}
	floats := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff80000deadbeef), // a NaN payload must survive as bits
	}
	for i := range ints {
		ic.Append(ints[i])
		fc.Append(floats[i])
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	out := map[string][]byte{
		"int.part":   read("p00000000.part"),
		"float.part": read("p00000001.part"),
		"manifest":   read("manifest-00000000"),
	}
	log := read("wal-00000000.log")
	var recs []byte
	for off := len(walMagic) + 1; off < len(log); {
		payload, next, err := readFrame(log, off)
		if err != nil {
			t.Fatalf("wal frame at %d: %v", off, err)
		}
		switch payload[0] {
		case recAppendInt, recAppendFloat, recDDLInt, recDDLFloat:
			recs = append(recs, log[off:next]...)
		}
		off = next
	}
	out["records"] = recs
	return out
}

func TestNumericWriteBytesUnchanged(t *testing.T) {
	got := numericWriteBytes(t)
	for name, b := range got {
		want, err := os.ReadFile(filepath.Join("testdata", "numeric-write-v1", name))
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s: wrote %d bytes that differ from the %d-byte fixture\n got %x\nwant %x", name, len(b), len(want), b, want)
		}
	}
	// 2 DDL records + 6 rows × 2 columns, each append frame 8+13 bytes.
	if n := len(got["records"]); n < 12*21 {
		t.Fatalf("records fixture holds %d bytes, fewer than the 12 append frames alone", n)
	}
}
