package persist

// WAL record grammar. Every record is framed as
//
//	length u32 | crc u32 | payload[length]
//
// where crc is CRC32C (Castagnoli) over the payload and length counts the
// payload bytes only. The payload starts with a one-byte kind:
//
//	header   seq u64, ncols u32, (id u32, count u64)*   first record of a segment
//	append   id u32, value bytes                        one string row
//	appInt   id u32, value u64 (two's complement)       one int64 row
//	appFloat id u32, value u64 (IEEE 754 bits)          one float64 row
//	ddlTab   name bytes                                 table created
//	ddlStr   id u32, format u8, table str16, column str16    (legacy, read-only)
//	ddlInt   id u32, table str16, column str16
//	ddlFloat id u32, table str16, column str16
//	seal     (empty)                                    segment sealed, rotation follows
//	merge    id u32, nMain u64                          main part published (marker)
//	ddlStr2  id u32, format u16, table str16, column str16
//
// The format field of a string column is the dictionary format's registry
// wire ID. ddlStr carries it as a single byte — enough for the built-in
// formats but not for the extensions — so writers emit ddlStr2 with
// a u16 wire ID; ddlStr is still decoded for pre-existing logs.
//
// str16 is a u16 length followed by that many bytes. Columns are numbered
// by their ddl records; append records refer to the number, never the name.
// A reader hitting a frame whose length or checksum does not hold treats it
// as the torn tail of a crashed write — there is no record terminator, so
// the frame is the unit of atomicity.

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
)

// Record kinds.
const (
	recHeader      = 1
	recAppend      = 2
	recAppendInt   = 3
	recAppendFloat = 4
	recDDLTable    = 5
	recDDLString   = 6
	recDDLInt      = 7
	recDDLFloat    = 8
	recSeal        = 9
	recMerge       = 10
	recDDLString2  = 11
)

// maxRecord bounds a single record's payload; larger lengths are treated as
// corruption (a torn length field reads as garbage).
const maxRecord = 1 << 28

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is returned when persisted bytes fail validation.
var ErrCorrupt = errors.New("persist: corrupt data")

// errTorn marks an incomplete frame at the end of a segment: the write that
// produced it never finished. Recovery truncates it away.
var errTorn = errors.New("persist: torn record")

// appendFrame frames a payload into dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// readFrame parses one frame at off, returning the payload and the next
// offset. A frame that does not fully verify yields errTorn.
func readFrame(b []byte, off int) (payload []byte, next int, err error) {
	if off+8 > len(b) {
		return nil, 0, errTorn
	}
	length := binary.LittleEndian.Uint32(b[off:])
	sum := binary.LittleEndian.Uint32(b[off+4:])
	if length > maxRecord || off+8+int(length) > len(b) {
		return nil, 0, errTorn
	}
	payload = b[off+8 : off+8+int(length)]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, 0, errTorn
	}
	return payload, off + 8 + int(length), nil
}

// str16 helpers.

func appendStr16(dst []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16] // names are short; never hit in practice
	}
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func readStr16(b []byte, off int) (string, int, error) {
	if off+2 > len(b) {
		return "", 0, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint16(b[off:]))
	if off+2+n > len(b) {
		return "", 0, ErrCorrupt
	}
	return string(b[off+2 : off+2+n]), off + 2 + n, nil
}

// Payload encoders. Each returns a fresh payload slice; framing is the
// WAL's job so it can count bytes under its own lock.

func encHeader(seq uint64, counts map[uint32]uint64) []byte {
	p := make([]byte, 0, 13+12*len(counts))
	p = append(p, recHeader)
	p = binary.LittleEndian.AppendUint64(p, seq)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(counts)))
	// Deterministic order: ascending id.
	ids := make([]uint32, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		p = binary.LittleEndian.AppendUint32(p, id)
		p = binary.LittleEndian.AppendUint64(p, counts[id])
	}
	return p
}

func decHeader(p []byte) (seq uint64, counts map[uint32]uint64, err error) {
	if len(p) < 13 || p[0] != recHeader {
		return 0, nil, ErrCorrupt
	}
	seq = binary.LittleEndian.Uint64(p[1:])
	n := int(binary.LittleEndian.Uint32(p[9:]))
	if len(p) != 13+12*n {
		return 0, nil, ErrCorrupt
	}
	counts = make(map[uint32]uint64, n)
	for i := 0; i < n; i++ {
		off := 13 + 12*i
		id := binary.LittleEndian.Uint32(p[off:])
		counts[id] = binary.LittleEndian.Uint64(p[off+4:])
	}
	return seq, counts, nil
}

func encAppend(id uint32, value string) []byte {
	p := make([]byte, 0, 5+len(value))
	p = append(p, recAppend)
	p = binary.LittleEndian.AppendUint32(p, id)
	return append(p, value...)
}

func encAppendU64(kind byte, id uint32, v uint64) []byte {
	p := make([]byte, 0, 13)
	p = append(p, kind)
	p = binary.LittleEndian.AppendUint32(p, id)
	return binary.LittleEndian.AppendUint64(p, v)
}

func encDDLTable(name string) []byte {
	return append([]byte{recDDLTable}, name...)
}

func encDDLColumn(kind byte, id uint32, format uint16, table, column string) []byte {
	p := make([]byte, 0, 11+len(table)+len(column))
	p = append(p, kind)
	p = binary.LittleEndian.AppendUint32(p, id)
	if kind == recDDLString2 {
		p = binary.LittleEndian.AppendUint16(p, format)
	}
	p = appendStr16(p, table)
	return appendStr16(p, column)
}

func decDDLColumn(p []byte) (id uint32, format uint16, table, column string, err error) {
	if len(p) < 5 {
		return 0, 0, "", "", ErrCorrupt
	}
	kind := p[0]
	id = binary.LittleEndian.Uint32(p[1:])
	off := 5
	switch kind {
	case recDDLString: // legacy single-byte wire ID
		if len(p) < 6 {
			return 0, 0, "", "", ErrCorrupt
		}
		format = uint16(p[5])
		off = 6
	case recDDLString2:
		if len(p) < 7 {
			return 0, 0, "", "", ErrCorrupt
		}
		format = binary.LittleEndian.Uint16(p[5:])
		off = 7
	}
	table, off, err = readStr16(p, off)
	if err != nil {
		return 0, 0, "", "", err
	}
	column, off, err = readStr16(p, off)
	if err != nil {
		return 0, 0, "", "", err
	}
	if off != len(p) {
		return 0, 0, "", "", ErrCorrupt
	}
	return id, format, table, column, nil
}

func encMerge(id uint32, nMain uint64) []byte {
	p := make([]byte, 0, 13)
	p = append(p, recMerge)
	p = binary.LittleEndian.AppendUint32(p, id)
	return binary.LittleEndian.AppendUint64(p, nMain)
}
