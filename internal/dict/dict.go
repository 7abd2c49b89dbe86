// Package dict implements compressed string dictionary formats behind one
// format table. Eighteen are the formats surveyed in Section 3 of the
// paper: the array and front-coding dictionary classes combined with six
// string compression schemes (none, bit compression, Huffman/Hu-Tucker,
// 2-gram, 3-gram, Re-Pair 12/16 bit), plus the special-purpose variants
// inline front coding, front coding with difference-to-first, fixed-length
// array, and column-wise bit compression. Two extensions, lz78 and onpair,
// follow them in the same table; see registry.go.
//
// A dictionary is a read-only, order-preserving mapping between the sorted
// distinct strings of a column and dense integer value IDs (the string's
// rank). All formats support extracting a single string without
// decompressing neighbours, and locate by binary search.
//
// Input strings must be strictly ascending, unique, and free of NUL bytes
// (NUL is used as the raw-scheme terminator, as in the C++ implementation
// the paper describes).
package dict

import (
	"errors"
	"fmt"
	"strings"
)

// Format is the handle of a dictionary variant: a dense index into the
// format table. It identifies a format within one process only; the
// persisted identifier is the format's WireID (see registry.go).
type Format int

// The formats of the paper's survey occupy the first NumBuiltinFormats
// table rows, in this order; the extensions follow.
const (
	Array Format = iota
	ArrayBC
	ArrayHU
	ArrayNG2
	ArrayNG3
	ArrayRP12
	ArrayRP16
	ArrayFixed
	FCBlock
	FCBlockBC
	FCBlockDF
	FCBlockHU
	FCBlockNG2
	FCBlockNG3
	FCBlockRP12
	FCBlockRP16
	FCInline
	ColumnBC

	// LZ78 is the LZ78-compressed dictionary (lz78.go).
	LZ78
	// OnPair is the pair-table dictionary (onpair.go).
	OnPair

	numFormats int = iota
)

// NumBuiltinFormats is the number of dictionary variants from the paper's
// survey; NumFormats() counts the extensions too.
const NumBuiltinFormats = int(LZ78)

// String returns the format's name, e.g. "fc block rp 12".
func (f Format) String() string {
	if info, ok := formatInfo(f); ok {
		return info.Name
	}
	return fmt.Sprintf("format(%d)", int(f))
}

// ParseFormat converts a format name back to its Format value. Matching is
// case- and whitespace-insensitive; unknown names yield an error that lists
// every format (and suggests the nearest name when one is close).
func ParseFormat(name string) (Format, error) {
	norm := normalizeFormatName(name)
	for f := range registry {
		if normalizeFormatName(registry[f].Name) == norm {
			return Format(f), nil
		}
	}
	if near := nearestFormatName(name); near != "" {
		return 0, fmt.Errorf("dict: unknown format %q (did you mean %q?)", name, near)
	}
	return 0, fmt.Errorf("dict: unknown format %q (registered formats: %s)",
		name, strings.Join(RegisteredNames(), ", "))
}

// nearestFormatName returns the format name closest to the input, or ""
// when nothing is plausibly close.
func nearestFormatName(name string) string {
	norm := normalizeFormatName(name)
	best, bestDist := "", 3 // suggest only within edit distance 2
	for _, n := range RegisteredNames() {
		if d := editDistance(norm, normalizeFormatName(n)); d < bestDist {
			best, bestDist = n, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance; format names are short, so the
// quadratic DP is fine.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

// AllFormats returns every format in table order.
func AllFormats() []Format {
	out := make([]Format, NumFormats())
	for i := range out {
		out[i] = Format(i)
	}
	return out
}

// Scheme returns the string compression scheme a format applies
// (SchemeNone for formats with their own, self-contained coding).
func (f Format) Scheme() Scheme {
	if info, ok := formatInfo(f); ok {
		return info.Scheme
	}
	return SchemeNone
}

// IsFrontCoded reports whether the format belongs to the front-coding class.
func (f Format) IsFrontCoded() bool {
	if info, ok := formatInfo(f); ok {
		return info.FrontCoded
	}
	return false
}

// Dictionary is the read-only string dictionary of Definition 1.
type Dictionary interface {
	// Extract returns the string with the given value ID.
	// IDs out of range panic, mirroring slice indexing.
	Extract(id uint32) string

	// AppendExtract appends the string with the given value ID to dst and
	// returns the extended slice; it avoids allocation on the hot path.
	AppendExtract(dst []byte, id uint32) []byte

	// Locate returns the value ID of s if s is in the dictionary
	// (found == true), or the ID of the first string greater than s
	// (found == false; the ID equals Len() if every string is smaller).
	Locate(s string) (id uint32, found bool)

	// Len returns the number of strings.
	Len() int

	// Bytes returns the total in-memory size of the dictionary in bytes,
	// including codec tables and auxiliary arrays.
	Bytes() uint64

	// Format identifies the variant.
	Format() Format

	// ForEach visits every entry in value-ID order, passing a buffer that
	// is only valid during the callback. Returning false stops the walk.
	// Sequential access is much cheaper than repeated Extract calls for
	// the block-based formats (fc inline exists for exactly this pattern).
	ForEach(fn func(id uint32, value []byte) bool)
}

// DefaultFCBlockSize is the number of strings per front-coding block.
const DefaultFCBlockSize = 16

// DefaultColumnBCBlockSize is the number of strings per column-bc block.
const DefaultColumnBCBlockSize = 128

// ErrUnsorted is returned when the input is not strictly ascending.
var ErrUnsorted = errors.New("dict: input strings must be strictly ascending and unique")

// ErrNUL is returned when an input string contains a NUL byte.
var ErrNUL = errors.New("dict: input strings must not contain NUL bytes")

// Build constructs a dictionary of the given format over strs, which must be
// strictly ascending, unique and NUL-free.
func Build(f Format, strs []string) (Dictionary, error) {
	if err := Validate(strs); err != nil {
		return nil, err
	}
	return build(f, strs)
}

// BuildUnchecked is Build without input validation, for callers (such as the
// column-store merge) that construct sorted unique inputs by design.
func BuildUnchecked(f Format, strs []string) Dictionary {
	d, err := build(f, strs)
	if err != nil {
		panic(err) // build itself never fails on validated input
	}
	return d
}

func build(f Format, strs []string) (Dictionary, error) {
	info, ok := formatInfo(f)
	if !ok {
		return nil, fmt.Errorf("dict: unknown format %d", int(f))
	}
	return info.Build(strs), nil
}

// Validate checks the input contract of Build.
func Validate(strs []string) error {
	for i, s := range strs {
		if strings.IndexByte(s, 0) >= 0 {
			return ErrNUL
		}
		if i > 0 && strs[i-1] >= s {
			return ErrUnsorted
		}
	}
	return nil
}

// RawBytes returns the summed length of all strings, the numerator of the
// paper's dictionary compression rate (Definition 2).
func RawBytes(strs []string) uint64 {
	var n uint64
	for _, s := range strs {
		n += uint64(len(s))
	}
	return n
}

// CompressionRate computes the paper's Definition 2 for a built dictionary:
// the summed length of the stored strings divided by the dictionary size.
func CompressionRate(d Dictionary, strs []string) float64 {
	size := d.Bytes()
	if size == 0 {
		return 0
	}
	return float64(RawBytes(strs)) / float64(size)
}

// commonPrefixLen returns the length of the longest common prefix of a and
// b, capped at 255 so it fits the one-byte front-coding header slot.
func commonPrefixLen(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n > 255 {
		n = 255
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// StructOverhead is the fixed per-dictionary footprint charged by Bytes()
// for struct and slice headers; size models add the same constant.
const StructOverhead = arrayOverhead

// CommonPrefixLen exposes the front-coding prefix computation (capped at 255
// to fit the one-byte header slot) for the size-prediction models.
func CommonPrefixLen(a, b string) int { return commonPrefixLen(a, b) }

// GenericLocate runs the extraction-based binary search on any dictionary,
// bypassing format-specific fast paths (such as the encoded-domain
// comparison of order-preserving array schemes). It exists so ablation
// benchmarks can quantify what the fast paths buy.
func GenericLocate(d Dictionary, s string) (uint32, bool) {
	return locateByExtract(d, d.Len(), s)
}

// ByteLocator is implemented by dictionary formats with a native byte-slice
// locate: the same Definition 1 semantics as Locate, without converting the
// probe to a string. The array and front-coding classes implement it
// allocation-free on their raw schemes.
type ByteLocator interface {
	LocateBytes(b []byte) (id uint32, found bool)
}

// LocateBytes is Locate with a byte-slice probe — the scan and
// dictionary-translation fast path, where probes arrive as reused []byte
// buffers and a string(buf) conversion per probe is pure allocator traffic.
// Formats implementing ByteLocator answer natively; the rest fall back to
// the extraction-based binary search, which compares bytes directly and
// never converts.
func LocateBytes(d Dictionary, b []byte) (uint32, bool) {
	if bl, ok := d.(ByteLocator); ok {
		return bl.LocateBytes(b)
	}
	return locateByExtract(d, d.Len(), b)
}

// BuildWithFCBlockSize builds a front-coding format with a non-default
// block size (the default is DefaultFCBlockSize). Used by the block-size
// ablation; non-front-coded formats return an error.
func BuildWithFCBlockSize(f Format, strs []string, blockSize int) (Dictionary, error) {
	if err := Validate(strs); err != nil {
		return nil, err
	}
	if blockSize < 2 {
		return nil, fmt.Errorf("dict: front-coding block size %d too small", blockSize)
	}
	info, ok := formatInfo(f)
	if !ok || info.BuildBlock == nil {
		return nil, fmt.Errorf("dict: %s is not a front-coding format", f)
	}
	return info.BuildBlock(strs, blockSize), nil
}
