// Package golden compares a test's text output with a checked-in file.
// Test binaries that import it gain an -update flag that rewrites the file
// instead; it is imported by tests only.
package golden

import (
	"bytes"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from the current output instead of comparing")

// Check fails t unless got equals the file at path byte for byte, reporting
// the first differing lines. With -update it writes got to path.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i, shown := 0, 0; i < len(gl) && i < len(wl) && shown < 10; i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Errorf("%s:%d: got %q, want %q", path, i+1, gl[i], wl[i])
			shown++
		}
	}
	t.Fatalf("output differs from %s (%d vs %d lines); -update rewrites it", path, len(gl), len(wl))
}
