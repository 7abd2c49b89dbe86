package intcomp

// Binary serialization of code vectors. Checkpointing the read-optimized
// main part of a column (see internal/persist) persists the dictionary and
// the compressed code vector side by side; dictionaries already have a
// versioned binary form (dict.Marshal), and this file gives the vectors one.
// Every vector implementation round-trips exactly, so reloading a
// checkpoint reproduces the in-memory representation, not just the logical
// sequence. The one exception is read-only: tagConcat, a list of parts that
// partial folds once appended to the main vector, decodes into one flat
// vector, and nothing writes it any more.
//
// Layout (little-endian):
//
//	version u8 (currently 1)
//	tag     u8 (vector implementation)
//	body    tag-specific, see appendVector
//
// All inputs are validated on load: lengths must agree, run starts must be
// strictly ascending, frame geometry must match. Corrupt bytes yield
// ErrCorrupt, never a panic or an out-of-range vector.

import (
	"encoding/binary"
	"errors"

	"strdict/internal/bits"
)

const vectorVersion = 1

// Vector implementation tags.
const (
	tagPacked = 1
	tagRLE    = 2
	tagFOR    = 3
	tagConcat = 4 // read only, see unmarshalVector
)

// ErrCorrupt is returned when serialized vector bytes fail validation.
var ErrCorrupt = errors.New("intcomp: corrupt serialized vector")

// maxElements bounds any deserialized vector's logical length; far beyond
// anything real, but small enough that length arithmetic cannot overflow.
const maxElements = 1 << 40

// maxConcatParts and maxConcatElements bound a legacy concatenation: the
// writer collapsed longer part lists into one vector, and decoding one
// costs 8 bytes per element (256 MiB at the bound) before it is re-packed.
const (
	maxConcatParts    = 64
	maxConcatElements = 1 << 25
)

// Marshal serializes a vector produced by this package.
func Marshal(v Vector) ([]byte, error) {
	return AppendMarshal(nil, v)
}

// AppendMarshal appends the serialized form of v to dst.
func AppendMarshal(dst []byte, v Vector) ([]byte, error) {
	dst = append(dst, vectorVersion)
	switch vv := v.(type) {
	case packedVector:
		dst = append(dst, tagPacked)
		return vv.pa.AppendBinary(dst), nil
	case rleVector:
		dst = append(dst, tagRLE)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(vv.n))
		dst = vv.starts.AppendBinary(dst)
		return vv.values.AppendBinary(dst), nil
	case *forVector:
		dst = append(dst, tagFOR)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(vv.n))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(vv.frameSize))
		dst = vv.bases.AppendBinary(dst)
		for f, w := range vv.widths {
			dst = append(dst, w)
			if w > 0 {
				dst = vv.offsets[f].AppendBinary(dst)
			}
		}
		return dst, nil
	default:
		return nil, errors.New("intcomp: cannot marshal unknown vector type")
	}
}

// Unmarshal reconstructs a vector serialized by Marshal, validating every
// structural invariant. Trailing bytes are rejected.
func Unmarshal(b []byte) (Vector, error) {
	v, n, err := UnmarshalPrefix(b)
	if err != nil {
		return nil, err
	}
	if n != len(b) {
		return nil, ErrCorrupt
	}
	return v, nil
}

// UnmarshalPrefix reconstructs a vector from the start of b and returns the
// number of bytes consumed, for callers embedding vectors in larger files.
func UnmarshalPrefix(b []byte) (Vector, int, error) {
	if len(b) < 2 {
		return nil, 0, ErrCorrupt
	}
	if b[0] != vectorVersion {
		return nil, 0, ErrCorrupt
	}
	v, n, err := unmarshalVector(b[1:], true)
	if err != nil {
		return nil, 0, err
	}
	return v, n + 1, nil
}

// unmarshalVector parses one tagged vector body, returning bytes consumed.
func unmarshalVector(b []byte, allowConcat bool) (Vector, int, error) {
	if len(b) < 1 {
		return nil, 0, ErrCorrupt
	}
	tag := b[0]
	off := 1
	switch tag {
	case tagPacked:
		pa, n, err := bits.UnmarshalPackedArray(b[off:])
		if err != nil {
			return nil, 0, ErrCorrupt
		}
		return packedVector{pa}, off + n, nil

	case tagRLE:
		if len(b) < off+8 {
			return nil, 0, ErrCorrupt
		}
		count := binary.LittleEndian.Uint64(b[off:])
		off += 8
		if count > maxElements {
			return nil, 0, ErrCorrupt
		}
		starts, n, err := bits.UnmarshalPackedArray(b[off:])
		if err != nil {
			return nil, 0, ErrCorrupt
		}
		off += n
		values, n, err := bits.UnmarshalPackedArray(b[off:])
		if err != nil {
			return nil, 0, ErrCorrupt
		}
		off += n
		v := rleVector{n: int(count), starts: starts, values: values}
		if err := v.validate(); err != nil {
			return nil, 0, err
		}
		return v, off, nil

	case tagFOR:
		if len(b) < off+12 {
			return nil, 0, ErrCorrupt
		}
		count := binary.LittleEndian.Uint64(b[off:])
		frameSize := binary.LittleEndian.Uint32(b[off+8:])
		off += 12
		if count > maxElements || frameSize == 0 || frameSize > 1<<26 {
			return nil, 0, ErrCorrupt
		}
		nframes := int((count + uint64(frameSize) - 1) / uint64(frameSize))
		bases, n, err := bits.UnmarshalPackedArray(b[off:])
		if err != nil || bases.Len() != nframes {
			return nil, 0, ErrCorrupt
		}
		off += n
		v := &forVector{n: int(count), frameSize: int(frameSize), bases: bases}
		for f := 0; f < nframes; f++ {
			if len(b) < off+1 {
				return nil, 0, ErrCorrupt
			}
			w := b[off]
			off++
			v.widths = append(v.widths, w)
			if w == 0 {
				v.offsets = append(v.offsets, nil)
				continue
			}
			pa, n, err := bits.UnmarshalPackedArray(b[off:])
			if err != nil {
				return nil, 0, ErrCorrupt
			}
			off += n
			lo := f * int(frameSize)
			hi := lo + int(frameSize)
			if hi > int(count) {
				hi = int(count)
			}
			if pa.Len() != hi-lo || pa.Width() != uint(w) || w > 64 {
				return nil, 0, ErrCorrupt
			}
			v.offsets = append(v.offsets, pa)
		}
		return v, off, nil

	case tagConcat:
		// Identity partial folds once appended the folded rows to the main
		// vector as a new part, and checkpoints written then still hold
		// that list. Its parts decode into one flat vector, as a full merge
		// would have packed them. The checks are the writer's invariants:
		// 1..maxConcatParts non-empty parts, none itself a concatenation,
		// and at most maxConcatElements elements in all, since the flat
		// vector is built from a decoded copy of every element.
		if !allowConcat || len(b) < off+4 {
			return nil, 0, ErrCorrupt
		}
		nparts := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if nparts == 0 || nparts > maxConcatParts {
			return nil, 0, ErrCorrupt
		}
		parts := make([]Vector, nparts)
		total := 0
		for i := range parts {
			p, n, err := unmarshalVector(b[off:], false)
			if err != nil {
				return nil, 0, err
			}
			off += n
			if p.Len() == 0 || total+p.Len() > maxConcatElements {
				return nil, 0, ErrCorrupt
			}
			parts[i], total = p, total+p.Len()
		}
		flat := make([]uint64, 0, total)
		for _, p := range parts {
			flat = p.AppendRange(flat, 0, p.Len())
		}
		return PackAuto(flat), off, nil

	default:
		return nil, 0, ErrCorrupt
	}
}

// validate checks rleVector structural invariants after deserialization:
// one value per run, strictly ascending run starts beginning at 0, and
// every start inside the logical length.
func (v rleVector) validate() error {
	if v.n < 0 || v.starts.Len() != v.values.Len() {
		return ErrCorrupt
	}
	if v.n == 0 {
		if v.starts.Len() != 0 {
			return ErrCorrupt
		}
		return nil
	}
	if v.starts.Len() == 0 || v.starts.Get(0) != 0 {
		return ErrCorrupt
	}
	prev := uint64(0)
	for i := 1; i < v.starts.Len(); i++ {
		s := v.starts.Get(i)
		if s <= prev || s >= uint64(v.n) {
			return ErrCorrupt
		}
		prev = s
	}
	return nil
}
