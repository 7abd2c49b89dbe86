package dict

// The format registry. Every dictionary format — the paper's eighteen
// built-ins and any extension — is described by one FormatInfo descriptor
// holding its name, its immutable on-disk wire ID, its dictionary-class
// traits, its builder, and its serializer. All generic machinery (Build,
// AllFormats, Marshal/Unmarshal, the prediction framework, the compression
// manager, persistence) dispatches through the registry and needs no
// per-format knowledge; adding a format is one registration file.
//
// Two identifier spaces exist on purpose:
//
//   - The Format value is a dense registry index, assigned in registration
//     order. It is a process-local handle: good for array indexing and map
//     keys, never persisted.
//   - The WireID is the format's immutable serialized identifier, chosen by
//     the registrant and written into dictionary blobs, WAL DDL records and
//     checkpoint manifests. Wire IDs must never be reused or renumbered —
//     bytes on disk outlive any refactor. The built-in formats own wire IDs
//     0–17 (their historical enum values, so pre-registry files load
//     unchanged); extensions must pick unused IDs well clear of that range.

import (
	"fmt"
	"sort"
	"strings"
)

// FormatInfo describes one dictionary format to the registry.
type FormatInfo struct {
	// Name is the format's human-readable identifier (e.g. "fc block rp 12").
	// ParseFormat matches it case- and whitespace-insensitively.
	Name string

	// WireID is the immutable on-disk identifier. See the package comment on
	// the two identifier spaces; never reuse or renumber a wire ID.
	WireID uint16

	// Scheme is the string compression scheme trait the format applies
	// (SchemeNone for formats with their own, self-contained coding).
	Scheme Scheme

	// FrontCoded reports membership in the front-coding dictionary class.
	FrontCoded bool

	// Build constructs the dictionary over validated input (strictly
	// ascending, unique, NUL-free strings).
	Build func(strs []string) Dictionary

	// BuildBlock, optional, builds with a non-default front-coding block
	// size. Nil for formats without a tunable block layout.
	BuildBlock func(strs []string, blockSize int) Dictionary

	// Marshal appends the format's payload sections (everything between the
	// serialization header and the CRC footer) for a dictionary this format
	// built.
	Marshal func(e *enc, d Dictionary) error

	// Unmarshal parses and validates the payload sections. Implementations
	// must reject structurally invalid bytes with ErrCorrupt — Unmarshal runs
	// on untrusted input.
	Unmarshal func(d *dec) (Dictionary, error)
}

var (
	registry []FormatInfo
	byName   map[string]Format // normalized name → format
	byWire   map[uint16]Format
)

// builtinsRegistered pins initialization order: RegisterFormat references it,
// so any package-level registration in another file depends on it and the
// paper's built-ins always occupy registry indexes 0–17 (their legacy enum
// values) before extensions register.
var builtinsRegistered = registerBuiltins()

// RegisterFormat adds a format to the registry and returns its Format value.
// It is meant to be called from a package-level variable initializer in the
// format's registration file:
//
//	var MyFormat = RegisterFormat(FormatInfo{...})
//
// Registration panics on descriptor errors (duplicate name or wire ID,
// missing hooks): a malformed registration is a programming bug that must
// surface at start-up, not at first use.
func RegisterFormat(info FormatInfo) Format {
	_ = builtinsRegistered
	return register(info)
}

func register(info FormatInfo) Format {
	name := normalizeFormatName(info.Name)
	switch {
	case name == "":
		panic("dict: RegisterFormat with empty name")
	case info.Build == nil || info.Marshal == nil || info.Unmarshal == nil:
		panic(fmt.Sprintf("dict: format %q registered without build/marshal/unmarshal hooks", info.Name))
	}
	if f, dup := byName[name]; dup {
		panic(fmt.Sprintf("dict: format name %q already registered as %s", info.Name, f))
	}
	if f, dup := byWire[info.WireID]; dup {
		panic(fmt.Sprintf("dict: wire ID %d already registered by %s", info.WireID, f))
	}
	f := Format(len(registry))
	registry = append(registry, info)
	byName[name] = f
	byWire[info.WireID] = f
	return f
}

// formatInfo returns the descriptor of a registered format.
func formatInfo(f Format) (*FormatInfo, bool) {
	if f < 0 || int(f) >= len(registry) {
		return nil, false
	}
	return &registry[f], true
}

// NumFormats returns the number of registered dictionary formats.
func NumFormats() int { return len(registry) }

// WireID returns the format's immutable on-disk identifier. It panics on an
// unregistered Format value — such a value cannot name real bytes.
func (f Format) WireID() uint16 {
	info, ok := formatInfo(f)
	if !ok {
		panic(fmt.Sprintf("dict: WireID of unregistered format %d", int(f)))
	}
	return info.WireID
}

// FormatByWireID resolves a serialized wire ID back to its registered
// format. Unknown IDs return ok == false; persistence layers map that to
// their corruption errors rather than guessing.
func FormatByWireID(wire uint16) (Format, bool) {
	f, ok := byWire[wire]
	return f, ok
}

// RegisteredNames returns the names of all registered formats, sorted.
func RegisteredNames() []string {
	names := make([]string, 0, len(registry))
	for i := range registry {
		names = append(names, registry[i].Name)
	}
	sort.Strings(names)
	return names
}

// normalizeFormatName canonicalizes a format name for lookup: lower case,
// single spaces.
func normalizeFormatName(name string) string {
	return strings.Join(strings.Fields(strings.ToLower(name)), " ")
}

// registerBuiltins registers the eighteen formats of the paper's survey at
// registry indexes 0–17, matching the Format constants, with wire IDs equal
// to their pre-registry enum values so existing serialized dictionaries,
// WAL records and checkpoint manifests keep loading.
func registerBuiltins() bool {
	registry = make([]FormatInfo, 0, 24)
	byName = make(map[string]Format, 24)
	byWire = make(map[uint16]Format, 24)

	arr := func(c Format, name string, sc Scheme) {
		mustBe(c, register(FormatInfo{
			Name:   name,
			WireID: uint16(c),
			Scheme: sc,
			Build: func(strs []string) Dictionary {
				return newArrayDict(c, strs)
			},
			Marshal:   marshalArray,
			Unmarshal: func(d *dec) (Dictionary, error) { return unmarshalArray(d, c, sc) },
		}))
	}
	fc := func(c Format, name string, sc Scheme, mode fcMode) {
		mustBe(c, register(FormatInfo{
			Name:       name,
			WireID:     uint16(c),
			Scheme:     sc,
			FrontCoded: true,
			Build: func(strs []string) Dictionary {
				return newFCDict(c, mode, strs, DefaultFCBlockSize)
			},
			BuildBlock: func(strs []string, blockSize int) Dictionary {
				return newFCDict(c, mode, strs, blockSize)
			},
			Marshal:   marshalFC,
			Unmarshal: func(d *dec) (Dictionary, error) { return unmarshalFC(d, c, sc, mode) },
		}))
	}

	arr(Array, "array", SchemeNone)
	arr(ArrayBC, "array bc", SchemeBC)
	arr(ArrayHU, "array hu", SchemeHU)
	arr(ArrayNG2, "array ng2", SchemeNG2)
	arr(ArrayNG3, "array ng3", SchemeNG3)
	arr(ArrayRP12, "array rp 12", SchemeRP12)
	arr(ArrayRP16, "array rp 16", SchemeRP16)
	mustBe(ArrayFixed, register(FormatInfo{
		Name:   "array fixed",
		WireID: uint16(ArrayFixed),
		Scheme: SchemeNone,
		Build: func(strs []string) Dictionary {
			return newArrayFixed(strs)
		},
		Marshal:   marshalArrayFixed,
		Unmarshal: unmarshalArrayFixed,
	}))
	fc(FCBlock, "fc block", SchemeNone, fcModePrev)
	fc(FCBlockBC, "fc block bc", SchemeBC, fcModePrev)
	fc(FCBlockDF, "fc block df", SchemeNone, fcModeFirst)
	fc(FCBlockHU, "fc block hu", SchemeHU, fcModePrev)
	fc(FCBlockNG2, "fc block ng2", SchemeNG2, fcModePrev)
	fc(FCBlockNG3, "fc block ng3", SchemeNG3, fcModePrev)
	fc(FCBlockRP12, "fc block rp 12", SchemeRP12, fcModePrev)
	fc(FCBlockRP16, "fc block rp 16", SchemeRP16, fcModePrev)
	fc(FCInline, "fc inline", SchemeNone, fcModeInline)
	mustBe(ColumnBC, register(FormatInfo{
		Name:   "column bc",
		WireID: uint16(ColumnBC),
		Scheme: SchemeNone,
		Build: func(strs []string) Dictionary {
			return newColumnBC(strs, DefaultColumnBCBlockSize)
		},
		Marshal:   marshalColumnBC,
		Unmarshal: unmarshalColumnBC,
	}))
	return true
}

// mustBe asserts a built-in landed on its constant's registry index.
func mustBe(want, got Format) {
	if want != got {
		panic(fmt.Sprintf("dict: builtin registered at index %d, want %d", int(got), int(want)))
	}
}
