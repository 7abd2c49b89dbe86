package persist

// Fuzz targets for the decoders recovery feeds with bytes read from disk:
// manifests, part files and WAL segments. None may panic on any input. The
// seeds are the frozen golden stores; every target also runs each input with
// its checksums recomputed, so mutations reach the decoders behind the CRC
// instead of stopping at it.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"strdict/internal/colstore"
)

// addGoldenSeeds adds every testdata file matching the patterns as a seed.
func addGoldenSeeds(f *testing.F, patterns ...string) [][]byte {
	f.Helper()
	var paths []string
	for _, pattern := range patterns {
		matches, err := filepath.Glob(filepath.Join("testdata", pattern))
		if err != nil || len(matches) == 0 {
			f.Fatalf("no golden seeds match %s: %v", pattern, err)
		}
		paths = append(paths, matches...)
	}
	var seeds [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		seeds = append(seeds, b)
	}
	return seeds
}

// withTrailerCRC returns b with its last four bytes replaced by the CRC32C
// of the rest, the trailer manifests and part files carry.
func withTrailerCRC(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	b = bytes.Clone(b)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
	return b
}

// FuzzManifest: decManifest never panics, and a manifest it accepts
// re-encodes to the same bytes. An older-version manifest re-encodes in the
// current version, which must decode to the same columns.
func FuzzManifest(f *testing.F) {
	for _, b := range addGoldenSeeds(f, "golden-store-v*/manifest-*", "numeric-write-v1/manifest") {
		if seq, walSeq, cols, err := decManifest(b); err == nil {
			f.Add(encManifest(seq, walSeq, cols))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, withTrailerCRC(b)} {
			seq, walSeq, cols, err := decManifest(in)
			if err != nil {
				continue
			}
			re := encManifest(seq, walSeq, cols)
			if in[4] == manifestVersion {
				if !bytes.Equal(re, in) {
					t.Fatalf("accepted manifest re-encodes differently:\n in %x\nout %x", in, re)
				}
				continue
			}
			seq2, walSeq2, cols2, err := decManifest(re)
			if err != nil || seq2 != seq || walSeq2 != walSeq || !reflect.DeepEqual(cols2, cols) {
				t.Fatalf("version %d manifest does not survive re-encoding: %v", in[4], err)
			}
		}
	})
}

// FuzzPart: decPart and the body decoders behind it never panic, and a part
// they accept is readable to its last row.
func FuzzPart(f *testing.F) {
	addGoldenSeeds(f, "golden-store-v*/p*.part", "numeric-write-v1/*.part")
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, withTrailerCRC(b)} {
			kind, rows, body, err := decPart(in)
			if err != nil {
				continue
			}
			switch kind {
			case partStr:
				d, codes, err := decStringPart(body, rows)
				if err != nil {
					continue
				}
				for i := 0; i < codes.Len() && i < 1<<16; i++ {
					d.Extract(uint32(codes.Get(i)))
				}
			case partInt, partFloat:
				c := addNumeric(colstore.NewStore().AddTable("t"), kind, "c")
				if decNumericPart(c, body, rows) == nil && uint64(c.Len()) != rows {
					t.Fatalf("numeric part restored %d rows, header says %d", c.Len(), rows)
				}
			}
		}
	})
}

// segmentFS serves one in-memory WAL segment to replay, which reads it and
// at most quarantines a tail; nothing else of FS is reached.
type segmentFS struct {
	FS
	seg []byte
}

func (s *segmentFS) ReadFile(string) ([]byte, error) { return s.seg, nil }
func (s *segmentFS) WriteFile(string, []byte) error  { return nil }
func (s *segmentFS) Truncate(string, int64) error    { return nil }

// withFrameCRCs returns a WAL segment with every frame's checksum recomputed
// (frames start after the preamble) for as far as the length fields hold.
func withFrameCRCs(b []byte) []byte {
	b = bytes.Clone(b)
	for off := len(walMagic) + 1; off+8 <= len(b); {
		n := int(binary.LittleEndian.Uint32(b[off:]))
		if n > len(b)-off-8 {
			break
		}
		binary.LittleEndian.PutUint32(b[off+4:], crc32.Checksum(b[off+8:off+8+n], crcTable))
		off += 8 + n
	}
	return b
}

// FuzzWALRecord replays a fuzzed segment through readFrame, decHeader,
// decDDLColumn and the append payloads into an empty store; no record may
// panic it, and every row it replays must read back.
func FuzzWALRecord(f *testing.F) {
	addGoldenSeeds(f, "golden-store-v*/wal-*.log")
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, withFrameCRCs(b)} {
			r := &recovered{
				store:  colstore.NewStore(),
				fs:     &segmentFS{seg: in},
				byName: make(map[string]*colState),
				byID:   make(map[uint32]*colState),
				tables: make(map[string]bool),
			}
			lc := &liveCols{
				str:   make(map[uint32]*colstore.StringColumn),
				num:   make(map[uint32]colstore.Numeric),
				table: make(map[string]*colstore.Table),
			}
			if err := r.replay("", []segmentInfo{{path: "wal-00000000.log"}}, lc); err != nil {
				t.Fatal(err)
			}
			for _, c := range lc.str {
				for i := 0; i < c.Len(); i++ {
					c.Get(i)
				}
			}
		}
	})
}
