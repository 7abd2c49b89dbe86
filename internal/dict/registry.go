package dict

// The format table. Every dictionary format — the paper's eighteen and the
// two extensions, onpair and lz78 — is one FormatInfo row holding its name,
// its immutable on-disk wire ID, its dictionary-class traits, its builder,
// and its serializer. All generic machinery (Build, AllFormats,
// Marshal/Unmarshal, the prediction framework, the compression manager,
// persistence) dispatches through the table and needs no per-format
// knowledge.
//
// Two identifier spaces exist on purpose:
//
//   - The Format value is the row's index, one of the Format constants. It
//     is a process-local handle: good for array indexing and map keys,
//     never persisted.
//   - The WireID is the format's immutable serialized identifier, written
//     into dictionary blobs, WAL DDL records and checkpoint manifests. Wire
//     IDs must never be reused or renumbered — bytes on disk outlive any
//     refactor. The paper's formats own wire IDs 0–17 (their historical enum
//     values, so pre-registry files load unchanged); the extensions own 32
//     (onpair) and 33 (lz78), clear of that range.

import (
	"fmt"
	"sort"
	"strings"
)

// FormatInfo describes one dictionary format: one row of the format table.
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

// registry is the format table, indexed by Format. init fills it: a
// package-level initialiser would close the cycle builders → Format.Scheme →
// formatInfo → registry.
var registry [numFormats]FormatInfo

// formatInfo returns the descriptor of a format.
func formatInfo(f Format) (*FormatInfo, bool) {
	if f < 0 || int(f) >= numFormats {
		return nil, false
	}
	return &registry[f], true
}

// NumFormats returns the number of dictionary formats.
func NumFormats() int { return numFormats }

// WireID returns the format's immutable on-disk identifier. It panics on an
// out-of-range Format value — such a value cannot name real bytes.
func (f Format) WireID() uint16 {
	info, ok := formatInfo(f)
	if !ok {
		panic(fmt.Sprintf("dict: WireID of unknown format %d", int(f)))
	}
	return info.WireID
}

// FormatByWireID resolves a serialized wire ID back to its format. Unknown
// IDs return ok == false; persistence layers map that to their corruption
// errors rather than guessing.
func FormatByWireID(wire uint16) (Format, bool) {
	for f := range registry {
		if registry[f].WireID == wire {
			return Format(f), true
		}
	}
	return 0, false
}

// RegisteredNames returns the names of all formats, sorted.
func RegisteredNames() []string {
	names := make([]string, 0, numFormats)
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

// init fills the format table. The paper's formats keep wire IDs equal to
// their pre-registry enum values so existing serialized dictionaries, WAL
// records and checkpoint manifests keep loading.
func init() {
	arr := func(c Format, name string, sc Scheme) {
		registry[c] = FormatInfo{
			Name:   name,
			WireID: uint16(c),
			Scheme: sc,
			Build: func(strs []string) Dictionary {
				return newArrayDict(c, strs)
			},
			Marshal:   marshalArray,
			Unmarshal: func(d *dec) (Dictionary, error) { return unmarshalArray(d, c, sc) },
		}
	}
	fc := func(c Format, name string, sc Scheme, mode fcMode) {
		registry[c] = FormatInfo{
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
		}
	}

	arr(Array, "array", SchemeNone)
	arr(ArrayBC, "array bc", SchemeBC)
	arr(ArrayHU, "array hu", SchemeHU)
	arr(ArrayNG2, "array ng2", SchemeNG2)
	arr(ArrayNG3, "array ng3", SchemeNG3)
	arr(ArrayRP12, "array rp 12", SchemeRP12)
	arr(ArrayRP16, "array rp 16", SchemeRP16)
	registry[ArrayFixed] = FormatInfo{
		Name:   "array fixed",
		WireID: uint16(ArrayFixed),
		Scheme: SchemeNone,
		Build: func(strs []string) Dictionary {
			return newArrayFixed(strs)
		},
		Marshal:   marshalArrayFixed,
		Unmarshal: unmarshalArrayFixed,
	}
	fc(FCBlock, "fc block", SchemeNone, fcModePrev)
	fc(FCBlockBC, "fc block bc", SchemeBC, fcModePrev)
	fc(FCBlockDF, "fc block df", SchemeNone, fcModeFirst)
	fc(FCBlockHU, "fc block hu", SchemeHU, fcModePrev)
	fc(FCBlockNG2, "fc block ng2", SchemeNG2, fcModePrev)
	fc(FCBlockNG3, "fc block ng3", SchemeNG3, fcModePrev)
	fc(FCBlockRP12, "fc block rp 12", SchemeRP12, fcModePrev)
	fc(FCBlockRP16, "fc block rp 16", SchemeRP16, fcModePrev)
	fc(FCInline, "fc inline", SchemeNone, fcModeInline)
	registry[ColumnBC] = FormatInfo{
		Name:   "column bc",
		WireID: uint16(ColumnBC),
		Scheme: SchemeNone,
		Build: func(strs []string) Dictionary {
			return newColumnBC(strs, DefaultColumnBCBlockSize)
		},
		Marshal:   marshalColumnBC,
		Unmarshal: unmarshalColumnBC,
	}
	registry[LZ78] = FormatInfo{
		Name:   "lz78",
		WireID: 33,
		Scheme: SchemeNone,
		Build: func(strs []string) Dictionary {
			return newLZ78(strs)
		},
		Marshal:   marshalLZ78,
		Unmarshal: unmarshalLZ78,
	}
	registry[OnPair] = FormatInfo{
		Name:   "onpair",
		WireID: 32,
		Scheme: SchemeNone,
		Build: func(strs []string) Dictionary {
			return newOnPair(strs)
		},
		Marshal:   marshalOnPair,
		Unmarshal: unmarshalOnPair,
	}
}
