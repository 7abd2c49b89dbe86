package persist

// Checkpoint files. A checkpoint is a set of immutable part files — one per
// column — plus a manifest naming them. Part files hold a column's durable
// prefix (a string column's merged main part, or a numeric column's full
// value slice at checkpoint time) and are written once, never modified:
//
//	part     "SCKP" | version u8 | kind u8 | rows u64 | body | crc u32
//	  str    body = dictLen u32 | dict.Marshal bytes | intcomp.Marshal bytes
//	  int64  body = rows × u64 (two's complement, little endian)
//	  float  body = rows × u64 (IEEE 754 bits, little endian)
//
//	manifest "SMAN" | version u8 | seq u64 | walSeq u64 | ncols u32 | entries | crc u32
//	  entry  id u32 | kind u8 | format u16 | rows u64 |
//	         table str16 | column str16 | file str16
//
// A string column's format field is the dictionary format's registry wire
// ID. Manifest version 1 stored it as a single byte (the pre-registry
// format enum, equal to the built-ins' wire IDs); version 2 widened it to
// u16 for the extensions. Version 3 — the incremental-checkpoint
// part-reference form — added walSeq: the WAL segment that was active when
// the manifest was written. Every sealed segment with seq < walSeq predates
// the manifest, so its schema (DDL records) is fully contained in it; WAL
// truncation uses the *older* retained manifest's walSeq as its ceiling,
// and recovery seeds that ceiling from the loaded manifest instead of
// resetting it to zero. v1/v2 decode with walSeq = 0, which only makes
// truncation conservative. All versions decode through the registry; an
// unknown wire ID is ErrCorrupt, which makes recovery fall back to the
// previous manifest instead of mis-decoding the column.
//
// Both checksums are CRC32C over every preceding byte. Files are written to
// a .tmp name, fsynced, renamed into place and the directory fsynced, so a
// file that exists under its final name is complete. A new manifest reuses
// the part files of unchanged columns; the two newest manifests and the
// union of their parts are retained, older ones garbage collected, which is
// why a torn or corrupt newest manifest never strands the store — recovery
// falls back to its predecessor, whose parts are still on disk.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"strdict/internal/colstore"
	"strdict/internal/dict"
	"strdict/internal/intcomp"
)

const (
	partMagic   = "SCKP"
	partVersion = 1

	manifestMagic   = "SMAN"
	manifestVersion = 3

	// Part kinds (column types).
	partStr   = 0
	partInt   = 1
	partFloat = 2
)

func partPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("p%08d.part", seq))
}

func manifestPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("manifest-%08d", seq))
}

func parseManifestSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "manifest-%08d", &seq); err != nil {
		return 0, false
	}
	return seq, name == fmt.Sprintf("manifest-%08d", seq)
}

func parsePartSeq(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "p%08d.part", &seq); err != nil {
		return 0, false
	}
	return seq, name == fmt.Sprintf("p%08d.part", seq)
}

// Part encoding. (Atomic file writes live in fs.go: writeAtomicFS over the
// FS seam, so checkpoints are fault-injectable like the WAL.)

func appendPartHeader(dst []byte, kind uint8, rows uint64) []byte {
	dst = append(dst, partMagic...)
	dst = append(dst, partVersion, kind)
	return binary.LittleEndian.AppendUint64(dst, rows)
}

func appendPartFooter(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst, crcTable))
}

func encStringPart(d dict.Dictionary, codes intcomp.Vector) ([]byte, error) {
	db, err := dict.Marshal(d)
	if err != nil {
		return nil, err
	}
	buf := appendPartHeader(make([]byte, 0, 22+len(db)), partStr, uint64(codes.Len()))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(db)))
	buf = append(buf, db...)
	buf, err = intcomp.AppendMarshal(buf, codes)
	if err != nil {
		return nil, err
	}
	return appendPartFooter(buf), nil
}

// numericWire maps a numeric kind to its on-disk identity: the part kind
// (also the manifest's kind byte; the DDL record kind follows from it in
// addColumn) and the append record kind. The bytes predate
// colstore.NumericKind and never change.
func numericWire(k colstore.NumericKind) (part uint8, appendRec byte) {
	if k == colstore.Float64Kind {
		return partFloat, recAppendFloat
	}
	return partInt, recAppendInt
}

// addNumeric is numericWire's inverse: it defines the column a numeric part
// kind read from disk stands for.
func addNumeric(t *colstore.Table, part uint8, name string) colstore.Numeric {
	if part == partFloat {
		return t.AddFloat64(name)
	}
	return t.AddInt64(name)
}

// encNumericPart encodes the first n rows of a numeric column, reading the
// words straight off the column.
func encNumericPart(c colstore.Numeric, n int) []byte {
	part, _ := numericWire(c.Kind())
	buf := appendPartHeader(make([]byte, 0, 18+8*n), part, uint64(n))
	for i := 0; i < n; i++ {
		buf = binary.LittleEndian.AppendUint64(buf, c.Word(i))
	}
	return appendPartFooter(buf)
}

// decPart verifies a part file's envelope and returns its kind, row count
// and body.
func decPart(b []byte) (kind uint8, rows uint64, body []byte, err error) {
	if len(b) < 18 || string(b[:4]) != partMagic {
		return 0, 0, nil, ErrCorrupt
	}
	sum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(b[:len(b)-4], crcTable) != sum {
		return 0, 0, nil, ErrCorrupt
	}
	if b[4] != partVersion {
		return 0, 0, nil, fmt.Errorf("persist: unsupported part version %d", b[4])
	}
	kind = b[5]
	rows = binary.LittleEndian.Uint64(b[6:])
	return kind, rows, b[14 : len(b)-4], nil
}

// decStringPart reconstructs a string column's main part, validating that
// the code vector matches the stated row count and stays within the
// dictionary's domain.
func decStringPart(body []byte, rows uint64) (dict.Dictionary, intcomp.Vector, error) {
	if len(body) < 4 {
		return nil, nil, ErrCorrupt
	}
	dl := int(binary.LittleEndian.Uint32(body))
	if dl < 0 || 4+dl > len(body) {
		return nil, nil, ErrCorrupt
	}
	d, err := dict.Unmarshal(body[4 : 4+dl])
	if err != nil {
		return nil, nil, err
	}
	codes, err := intcomp.Unmarshal(body[4+dl:])
	if err != nil {
		return nil, nil, err
	}
	if uint64(codes.Len()) != rows {
		return nil, nil, ErrCorrupt
	}
	if n := codes.Len(); n > 0 {
		if _, hi := intcomp.MinMax(codes, 0, n); hi >= uint64(d.Len()) {
			return nil, nil, ErrCorrupt
		}
	}
	return d, codes, nil
}

// decNumericPart installs a numeric part's rows on the freshly defined,
// empty column c.
func decNumericPart(c colstore.Numeric, body []byte, rows uint64) error {
	if rows > uint64(len(body))/8 || uint64(len(body)) != rows*8 {
		return ErrCorrupt
	}
	c.RestoreWords(int(rows), func(row int) uint64 {
		return binary.LittleEndian.Uint64(body[8*row:])
	})
	return nil
}

// Manifest encoding.

// manifestCol is one column's entry in a manifest: which part file holds its
// durable prefix and how many rows that prefix covers.
type manifestCol struct {
	id     uint32
	kind   uint8
	format dict.Format // string columns only
	rows   uint64
	table  string
	column string
	file   string // part file base name, "" when rows == 0
}

func encManifest(seq, walSeq uint64, cols []manifestCol) []byte {
	buf := make([]byte, 0, 25+48*len(cols))
	buf = append(buf, manifestMagic...)
	buf = append(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, walSeq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(cols)))
	for _, c := range cols {
		buf = binary.LittleEndian.AppendUint32(buf, c.id)
		buf = append(buf, c.kind)
		var wire uint16
		if c.kind == partStr {
			wire = c.format.WireID()
		}
		buf = binary.LittleEndian.AppendUint16(buf, wire)
		buf = binary.LittleEndian.AppendUint64(buf, c.rows)
		buf = appendStr16(buf, c.table)
		buf = appendStr16(buf, c.column)
		buf = appendStr16(buf, c.file)
	}
	return appendPartFooter(buf)
}

func decManifest(b []byte) (seq, walSeq uint64, cols []manifestCol, err error) {
	if len(b) < 21 || string(b[:4]) != manifestMagic {
		return 0, 0, nil, ErrCorrupt
	}
	sum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.Checksum(b[:len(b)-4], crcTable) != sum {
		return 0, 0, nil, ErrCorrupt
	}
	version := b[4]
	if version < 1 || version > manifestVersion {
		return 0, 0, nil, fmt.Errorf("persist: unsupported manifest version %d", version)
	}
	seq = binary.LittleEndian.Uint64(b[5:])
	off := 13
	if version >= 3 {
		if len(b) < 29 {
			return 0, 0, nil, ErrCorrupt
		}
		walSeq = binary.LittleEndian.Uint64(b[13:])
		off = 21
	}
	n := int(binary.LittleEndian.Uint32(b[off:]))
	if n < 0 || n > 1<<20 {
		return 0, 0, nil, ErrCorrupt
	}
	body := b[:len(b)-4]
	off += 4
	// Fixed prefix of an entry before the str16 fields: version 1 carried a
	// single-byte format, version 2 a u16 wire ID.
	prefix := 15
	if version == 1 {
		prefix = 14
	}
	cols = make([]manifestCol, 0, n)
	for i := 0; i < n; i++ {
		if off+prefix > len(body) {
			return 0, 0, nil, ErrCorrupt
		}
		c := manifestCol{
			id:   binary.LittleEndian.Uint32(body[off:]),
			kind: body[off+4],
		}
		var wire uint16
		if version == 1 {
			wire = uint16(body[off+5])
			c.rows = binary.LittleEndian.Uint64(body[off+6:])
		} else {
			wire = binary.LittleEndian.Uint16(body[off+5:])
			c.rows = binary.LittleEndian.Uint64(body[off+7:])
		}
		if c.kind == partStr {
			f, ok := dict.FormatByWireID(wire)
			if !ok {
				return 0, 0, nil, ErrCorrupt
			}
			c.format = f
		} else if wire != 0 {
			return 0, 0, nil, ErrCorrupt // only string columns carry a format
		}
		off += prefix
		if c.table, off, err = readStr16(body, off); err != nil {
			return 0, 0, nil, err
		}
		if c.column, off, err = readStr16(body, off); err != nil {
			return 0, 0, nil, err
		}
		if c.file, off, err = readStr16(body, off); err != nil {
			return 0, 0, nil, err
		}
		cols = append(cols, c)
	}
	if off != len(body) {
		return 0, 0, nil, ErrCorrupt
	}
	return seq, walSeq, cols, nil
}
