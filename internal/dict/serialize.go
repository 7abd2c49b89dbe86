package dict

// Binary serialization of dictionaries. In the architecture the paper
// targets, the read-optimized store is periodically persisted; dictionaries
// are immutable between merges, so a flat, mmap-friendly binary form is the
// natural fit. The layout is versioned and all inputs are validated on
// load, so Unmarshal is safe on untrusted bytes.
//
// Layout (little-endian):
//
//	magic   [4]byte "SDIC"
//	version u8 (currently 3)
//	format  uvarint wire ID (version 3; a single u8 in versions 1 and 2)
//	payload format-specific sections (each format's registry descriptor)
//	crc     u32 CRC32C over everything before it (version >= 2)
//
// Version 2 added the footer checksum so corrupt dictionary bytes fail fast
// with ErrCorrupt instead of relying on structural validation alone.
// Version 3 replaced the single-byte format enum with the registry's
// unsigned-varint wire ID, lifting the 256-format ceiling; built-in formats
// keep wire IDs 0–17 (one varint byte, identical to the old enum values), so
// version-1 and version-2 blobs decode through the same wire table.
// Unmarshal accepts all three versions; unknown wire IDs are ErrCorrupt.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"strdict/internal/bitcomp"
	"strdict/internal/bits"
	"strdict/internal/huffman"
	"strdict/internal/hutucker"
	"strdict/internal/ngram"
	"strdict/internal/repair"
)

var magic = [4]byte{'S', 'D', 'I', 'C'}

const serialVersion = 3

// crcTable is the Castagnoli polynomial (CRC32C) — hardware-accelerated on
// amd64/arm64, and the same polynomial the persist subsystem uses for WAL
// records and checkpoint footers.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when serialized bytes fail validation.
var ErrCorrupt = errors.New("dict: corrupt serialized dictionary")

// enc is a tiny append-only binary writer.
type enc struct{ buf []byte }

func (e *enc) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *enc) bytes(b []byte) {
	e.u64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *enc) packed(p *bits.PackedArray) {
	e.buf = p.AppendBinary(e.buf)
}

func (e *enc) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// dec is the matching reader; all methods keep err sticky.
type dec struct {
	buf []byte
	off int
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *dec) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *dec) bytes() []byte {
	n := d.u64()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *dec) packed() *bits.PackedArray {
	if d.err != nil {
		return nil
	}
	p, n, err := bits.UnmarshalPackedArray(d.buf[d.off:])
	if err != nil {
		d.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
		return nil
	}
	d.off += n
	return p
}

// Marshal serializes a dictionary built by this package, dispatching the
// payload to the format's serializer.
func Marshal(dict Dictionary) ([]byte, error) {
	info, ok := formatInfo(dict.Format())
	if !ok {
		return nil, fmt.Errorf("dict: cannot marshal unknown format %d", int(dict.Format()))
	}
	e := &enc{}
	e.buf = append(e.buf, magic[:]...)
	e.u8(serialVersion)
	e.uvarint(uint64(info.WireID))
	if err := info.Marshal(e, dict); err != nil {
		return nil, err
	}
	e.u32(crc32.Checksum(e.buf, crcTable))
	return e.buf, nil
}

// Per-class payload serializers, referenced by the format table's rows.

// errWrongType reports a dictionary handed to a serializer for a format it
// was not built by — a format-table bug, not corrupt input.
func errWrongType(dict Dictionary) error {
	return fmt.Errorf("dict: cannot marshal %T as %s", dict, dict.Format())
}

func marshalArray(e *enc, dict Dictionary) error {
	d, ok := dict.(*arrayDict)
	if !ok {
		return errWrongType(dict)
	}
	e.u64(uint64(d.n))
	e.bytes(d.data)
	e.packed(d.offsets)
	return marshalCodec(e, d.c)
}

func marshalArrayFixed(e *enc, dict Dictionary) error {
	d, ok := dict.(*arrayFixed)
	if !ok {
		return errWrongType(dict)
	}
	e.u64(uint64(d.n))
	e.u64(uint64(d.slot))
	e.bytes(d.data)
	return nil
}

func marshalFC(e *enc, dict Dictionary) error {
	d, ok := dict.(*fcDict)
	if !ok {
		return errWrongType(dict)
	}
	e.u64(uint64(d.n))
	e.u32(uint32(d.blockSize))
	e.bytes(d.data)
	e.packed(d.blockPtrs)
	return marshalCodec(e, d.c)
}

func marshalColumnBC(e *enc, dict Dictionary) error {
	d, ok := dict.(*columnBC)
	if !ok {
		return errWrongType(dict)
	}
	e.u64(uint64(d.n))
	e.u32(uint32(d.blockSize))
	e.bytes(d.data)
	e.packed(d.blockPtrs)
	return nil
}

func marshalCodec(e *enc, c codec) error {
	switch cc := c.(type) {
	case rawCodec:
		// nothing
	case bcCodec:
		e.bytes(cc.c.Alphabet())
	case huTuckerCodec:
		e.bytes(cc.c.CodeLengths())
	case huffmanCodec:
		e.bytes(cc.c.CodeLengths())
	case ngramCodec:
		e.u8(uint8(cc.c.N()))
		grams := cc.c.Grams()
		e.u32(uint32(len(grams)))
		for _, g := range grams {
			e.bytes([]byte(g))
		}
	case repairCodec:
		e.u8(uint8(cc.g.SymbolBits()))
		rules := cc.g.Rules()
		e.u32(uint32(len(rules)))
		for _, r := range rules {
			e.u32(uint32(r.Left))
			e.u32(uint32(r.Right))
		}
	default:
		return fmt.Errorf("dict: cannot marshal codec %T", c)
	}
	return nil
}

// unmarshalCodec mirrors marshalCodec; orderPreserving selects Hu-Tucker
// over Huffman for SchemeHU, matching buildCodec.
func unmarshalCodec(d *dec, s Scheme, orderPreserving bool) (codec, error) {
	switch s {
	case SchemeNone:
		return rawCodec{}, nil
	case SchemeBC:
		alpha := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		c, err := bitcomp.FromAlphabet(alpha)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return bcCodec{c}, nil
	case SchemeHU:
		lens := d.bytes()
		if d.err != nil {
			return nil, d.err
		}
		if orderPreserving {
			c, err := hutucker.FromCodeLengths(append([]uint8(nil), lens...))
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			return huTuckerCodec{c}, nil
		}
		c, err := huffman.FromCodeLengths(append([]uint8(nil), lens...))
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return huffmanCodec{c}, nil
	case SchemeNG2, SchemeNG3:
		n := int(d.u8())
		count := int(d.u32())
		if d.err != nil || count < 0 || count > ngram.MaxGrams {
			return nil, ErrCorrupt
		}
		grams := make([]string, 0, count)
		for i := 0; i < count; i++ {
			grams = append(grams, string(d.bytes()))
		}
		if d.err != nil {
			return nil, d.err
		}
		c, err := ngram.FromGrams(n, grams)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return ngramCodec{c}, nil
	case SchemeRP12, SchemeRP16:
		width := uint(d.u8())
		count := int(d.u32())
		if d.err != nil || width > 16 || count < 0 || count > repair.MaxRules(16) {
			return nil, ErrCorrupt
		}
		rules := make([]repair.Rule, 0, count)
		for i := 0; i < count; i++ {
			l := int32(d.u32())
			r := int32(d.u32())
			rules = append(rules, repair.Rule{Left: l, Right: r})
		}
		if d.err != nil {
			return nil, d.err
		}
		g, err := repair.FromRules(width, rules)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		return repairCodec{g}, nil
	default:
		return nil, ErrCorrupt
	}
}

// Unmarshal reconstructs a dictionary serialized by Marshal, validating the
// structural invariants (monotonic offsets, block geometry) so that reads
// on the result cannot index out of bounds. It accepts all serialization
// versions; the wire ID is resolved through the format registry, so blobs
// written before the registry existed (single-byte format enum, equal to
// the built-ins' wire IDs) load unchanged.
func Unmarshal(data []byte) (Dictionary, error) {
	var m [4]byte
	copy(m[:], data)
	if len(data) < 6 || m != magic {
		return nil, ErrCorrupt
	}
	version := data[4]
	switch version {
	case 1:
		// Legacy blobs carry no footer; structural validation only.
	case 2, 3:
		// Verify the CRC32C footer before touching the payload, so corrupt
		// bytes fail fast instead of decoding garbage.
		if len(data) < 10 {
			return nil, ErrCorrupt
		}
		body := data[:len(data)-4]
		want := binary.LittleEndian.Uint32(data[len(data)-4:])
		if crc32.Checksum(body, crcTable) != want {
			return nil, ErrCorrupt
		}
		data = body
	default:
		return nil, fmt.Errorf("dict: unsupported serialization version %d", version)
	}
	d := &dec{buf: data, off: 5}
	var wire uint16
	if version < 3 {
		wire = uint16(d.u8())
	} else {
		w := d.uvarint()
		if d.err != nil || w > 1<<16-1 {
			return nil, ErrCorrupt
		}
		wire = uint16(w)
	}
	f, ok := FormatByWireID(wire)
	if !ok {
		return nil, ErrCorrupt
	}
	info, _ := formatInfo(f)
	return info.Unmarshal(d)
}

// Per-class payload deserializers. Each parses the sections its marshal
// counterpart wrote and validates the structural invariants.

func unmarshalArray(d *dec, f Format, sc Scheme) (Dictionary, error) {
	n := d.u64()
	payload := d.bytes()
	offsets := d.packed()
	if d.err != nil {
		return nil, d.err
	}
	c, err := unmarshalCodec(d, sc, true)
	if err != nil {
		return nil, err
	}
	ad := &arrayDict{format: f, n: int(n), data: payload, offsets: offsets, c: c}
	if err := ad.validate(); err != nil {
		return nil, err
	}
	return ad, nil
}

func unmarshalArrayFixed(d *dec) (Dictionary, error) {
	n := d.u64()
	slot := d.u64()
	payload := d.bytes()
	if d.err != nil {
		return nil, d.err
	}
	// Bound both factors before multiplying so the product cannot wrap.
	if n > 1<<40 || slot > 1<<30 {
		return nil, ErrCorrupt
	}
	if slot == 0 {
		// A zero slot means every string is empty; unique input allows
		// at most one such string.
		if n > 1 || len(payload) != 0 {
			return nil, ErrCorrupt
		}
	} else if n*slot != uint64(len(payload)) {
		return nil, ErrCorrupt
	}
	return &arrayFixed{n: int(n), slot: int(slot), data: payload}, nil
}

func unmarshalFC(d *dec, f Format, sc Scheme, mode fcMode) (Dictionary, error) {
	n := d.u64()
	blockSize := d.u32()
	payload := d.bytes()
	ptrs := d.packed()
	if d.err != nil {
		return nil, d.err
	}
	c, err := unmarshalCodec(d, sc, false)
	if err != nil {
		return nil, err
	}
	fd := &fcDict{
		format: f, mode: mode, blockSize: int(blockSize),
		n: int(n), data: payload, blockPtrs: ptrs, c: c,
	}
	if err := fd.validate(); err != nil {
		return nil, err
	}
	return fd, nil
}

func unmarshalColumnBC(d *dec) (Dictionary, error) {
	n := d.u64()
	blockSize := d.u32()
	payload := d.bytes()
	ptrs := d.packed()
	if d.err != nil {
		return nil, d.err
	}
	cbc := &columnBC{n: int(n), blockSize: int(blockSize), data: payload, blockPtrs: ptrs}
	if err := cbc.validate(); err != nil {
		return nil, err
	}
	return cbc, nil
}

// validate checks arrayDict structural invariants after deserialization.
func (d *arrayDict) validate() error {
	if d.n < 0 || d.offsets.Len() != d.n+1 {
		return ErrCorrupt
	}
	// arrayLocate strips a raw encoding's last byte as its NUL terminator,
	// so every raw entry must have one.
	raw := d.format.Scheme() == SchemeNone
	prev := uint64(0)
	for i := 0; i <= d.n; i++ {
		off := d.offsets.Get(i)
		if off < prev || off > uint64(len(d.data)) || (raw && i > 0 && (off == prev || d.data[off-1] != 0)) {
			return ErrCorrupt
		}
		prev = off
	}
	return nil
}

// validate checks fcDict structural invariants after deserialization.
func (d *fcDict) validate() error {
	if d.n < 0 || d.blockSize < 2 {
		return ErrCorrupt
	}
	nblocks := (d.n + d.blockSize - 1) / d.blockSize
	if d.blockPtrs.Len() != nblocks+1 {
		return ErrCorrupt
	}
	prev := uint64(0)
	for i := 0; i <= nblocks; i++ {
		off := d.blockPtrs.Get(i)
		if off < prev || off > uint64(len(d.data)) {
			return ErrCorrupt
		}
		prev = off
	}
	// Headers of every block must fit in the block's byte range, and a df
	// block's first string in the data.
	for b := 0; b < nblocks; b++ {
		k := min(d.blockSize, d.n-b*d.blockSize)
		plens, _, payload, firstEnd := d.header(int(d.blockPtrs.Get(b)), k)
		if uint64(payload) > d.blockPtrs.Get(b+1) || firstEnd > len(d.data) {
			return ErrCorrupt
		}
		// A df walk truncates each string to the next one's prefix (see
		// fcDict.walk): that holds only while prefixes do not grow.
		if d.mode == fcModeFirst {
			for j := plens + 1; j < plens+k-1; j++ {
				if d.data[j] > d.data[j-1] {
					return ErrCorrupt
				}
			}
		}
	}
	return nil
}

// validate checks columnBC structural invariants after deserialization.
func (d *columnBC) validate() error {
	if d.n < 0 || d.blockSize < 1 {
		return ErrCorrupt
	}
	nblocks := (d.n + d.blockSize - 1) / d.blockSize
	if d.blockPtrs.Len() != nblocks+1 {
		return ErrCorrupt
	}
	// Walk every block's column headers, verifying that all packed areas
	// stay inside the data and the advertised geometry matches.
	for b := 0; b < nblocks; b++ {
		p := int(d.blockPtrs.Get(b))
		end := int(d.blockPtrs.Get(b + 1))
		if p+4 > len(d.data) || end > len(d.data) || end < p {
			return ErrCorrupt
		}
		k := int(binary.LittleEndian.Uint16(d.data[p:]))
		m := int(binary.LittleEndian.Uint16(d.data[p+2:]))
		lo := b * d.blockSize
		hi := lo + d.blockSize
		if hi > d.n {
			hi = d.n
		}
		if k != hi-lo {
			return ErrCorrupt
		}
		pos := p + 4
		for j := 0; j < m; j++ {
			if pos+2 > end {
				return ErrCorrupt
			}
			asize := int(binary.LittleEndian.Uint16(d.data[pos:]))
			if asize < 1 || asize > 256 {
				return ErrCorrupt
			}
			pos += 2 + asize
			if asize > 1 {
				width := bits.Width(uint64(asize - 1))
				pos += (k*int(width) + 7) / 8
			}
			if pos > end {
				return ErrCorrupt
			}
		}
	}
	return nil
}
