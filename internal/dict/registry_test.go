package dict

import (
	"strings"
	"testing"
)

// TestWireIDStability pins every format's on-disk identity. Wire
// IDs are immutable once shipped: the built-ins must keep the values of the
// pre-registry format enum (or every old WAL, manifest and .sdic blob
// misdecodes), and the extensions must keep their assigned slots.
func TestWireIDStability(t *testing.T) {
	want := map[Format]uint16{
		Array:       0,
		ArrayBC:     1,
		ArrayHU:     2,
		ArrayNG2:    3,
		ArrayNG3:    4,
		ArrayRP12:   5,
		ArrayRP16:   6,
		ArrayFixed:  7,
		FCBlock:     8,
		FCBlockBC:   9,
		FCBlockDF:   10,
		FCBlockHU:   11,
		FCBlockNG2:  12,
		FCBlockNG3:  13,
		FCBlockRP12: 14,
		FCBlockRP16: 15,
		FCInline:    16,
		ColumnBC:    17,
		OnPair:      32,
		LZ78:        33,
	}
	if len(want) != NumFormats() {
		t.Fatalf("test covers %d formats, the table has %d", len(want), NumFormats())
	}
	for f, wire := range want {
		if got := f.WireID(); got != wire {
			t.Errorf("%v.WireID() = %d, want %d", f, got, wire)
		}
		back, ok := FormatByWireID(wire)
		if !ok || back != f {
			t.Errorf("FormatByWireID(%d) = (%v, %v), want %v", wire, back, ok, f)
		}
	}
	if _, ok := FormatByWireID(999); ok {
		t.Error("FormatByWireID accepted an unregistered wire ID")
	}
}

// TestRegistryEnumeration pins the format table: dense indexes in this name
// order (a reordered const block fails here by name before it permutes
// estimates.golden), unique normalized names, unique wire IDs.
func TestRegistryEnumeration(t *testing.T) {
	want := []string{
		"array", "array bc", "array hu", "array ng2", "array ng3",
		"array rp 12", "array rp 16", "array fixed",
		"fc block", "fc block bc", "fc block df", "fc block hu",
		"fc block ng2", "fc block ng3", "fc block rp 12", "fc block rp 16",
		"fc inline", "column bc",
		"lz78", "onpair",
	}
	all := AllFormats()
	if len(all) != len(want) || NumFormats() != len(want) || NumBuiltinFormats != 18 {
		t.Fatalf("AllFormats() has %d entries, NumFormats() = %d, NumBuiltinFormats = %d; want %d, %d, 18",
			len(all), NumFormats(), NumBuiltinFormats, len(want), len(want))
	}
	names := make(map[string]bool)
	wires := make(map[uint16]bool)
	for i, f := range all {
		if int(f) != i || f.String() != want[i] {
			t.Errorf("AllFormats()[%d] = %d %q, want %d %q", i, int(f), f, i, want[i])
		}
		n := normalizeFormatName(f.String())
		if names[n] {
			t.Errorf("duplicate format name %q", n)
		}
		names[n] = true
		if wires[f.WireID()] {
			t.Errorf("duplicate wire ID %d", f.WireID())
		}
		wires[f.WireID()] = true
	}
}

// TestParseFormatRegistry exercises the registry-backed name parsing: exact
// names, case/whitespace normalization, typo suggestions, and the full
// listing for hopeless inputs.
func TestParseFormatRegistry(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Format
	}{
		{"onpair", OnPair},
		{"lz78", LZ78},
		{"FC  Block RP 16", FCBlockRP16},
		{" array \t bc ", ArrayBC},
	} {
		got, err := ParseFormat(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseFormat(%q) = (%v, %v), want %v", c.in, got, err, c.want)
		}
	}

	_, err := ParseFormat("fc blck rp 16")
	if err == nil || !strings.Contains(err.Error(), `did you mean "fc block rp 16"`) {
		t.Errorf("typo suggestion missing: %v", err)
	}
	_, err = ParseFormat("onpare")
	if err == nil || !strings.Contains(err.Error(), `did you mean "onpair"`) {
		t.Errorf("typo suggestion missing: %v", err)
	}
	_, err = ParseFormat("definitely-not-a-format")
	if err == nil || !strings.Contains(err.Error(), "registered formats:") ||
		!strings.Contains(err.Error(), "onpair") {
		t.Errorf("full listing missing: %v", err)
	}
}
