package dict

import (
	"bytes"

	"strdict/internal/bits"
)

// arrayDict is the array dictionary class: the (possibly compressed) strings
// live concatenated in one data area, with a packed offset per string.
type arrayDict struct {
	format  Format
	n       int
	data    []byte
	offsets *bits.PackedArray // n+1 entries: offsets[i] .. offsets[i+1] is string i
	c       codec
}

func newArrayDict(f Format, strs []string) *arrayDict {
	parts := make([][]byte, len(strs))
	for i, s := range strs {
		parts[i] = []byte(s)
	}
	c, encs := buildCodec(f.Scheme(), parts, true)

	var total int
	for _, e := range encs {
		total += len(e)
	}
	data := make([]byte, 0, total)
	offs := make([]uint64, len(strs)+1)
	for i, e := range encs {
		offs[i] = uint64(len(data))
		data = append(data, e...)
	}
	offs[len(strs)] = uint64(len(data))
	return &arrayDict{
		format:  f,
		n:       len(strs),
		data:    data,
		offsets: bits.PackSlice(offs),
		c:       c,
	}
}

func (d *arrayDict) encoded(id uint32) []byte {
	lo := d.offsets.Get(int(id))
	hi := d.offsets.Get(int(id) + 1)
	return d.data[lo:hi]
}

func (d *arrayDict) Extract(id uint32) string {
	return string(d.AppendExtract(nil, id))
}

func (d *arrayDict) AppendExtract(dst []byte, id uint32) []byte {
	out, _ := d.c.decodeNext(dst, d.encoded(id))
	return out
}

func (d *arrayDict) Locate(s string) (uint32, bool) { return arrayLocate(d, s) }

// LocateBytes is the byte-slice probe path. On the raw scheme it compares
// the probe against the stored encodings in place — no conversion, no
// probe buffer, no allocation at all.
func (d *arrayDict) LocateBytes(s []byte) (uint32, bool) { return arrayLocate(d, s) }

// arrayLocate serves both probe types. Raw-scheme encodings are the value
// bytes plus a NUL terminator, so stripping the terminator lets the search
// compare the probe against stored data directly; order-preserving
// compressed schemes (bc, hu) binary-search on an encoded probe; everything
// else falls back to extraction-based search.
func arrayLocate[S ~string | ~[]byte](d *arrayDict, s S) (uint32, bool) {
	if d.format.Scheme() == SchemeNone {
		lo, hi := 0, d.n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			e := d.encoded(uint32(mid))
			if cmpProbe(e[:len(e)-1], s) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < d.n {
			e := d.encoded(uint32(lo))
			if cmpProbe(e[:len(e)-1], s) == 0 {
				return uint32(lo), true
			}
		}
		return uint32(lo), false
	}
	// The probe is encoded on the stack; past 64 bytes it moves to the heap.
	if probe, ok := encodedProbe(d.c, make([]byte, 0, 64), []byte(s)); ok {
		lo, hi := 0, d.n
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if bytes.Compare(d.encoded(uint32(mid)), probe) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		found := lo < d.n && bytes.Equal(d.encoded(uint32(lo)), probe)
		return uint32(lo), found
	}
	return locateByExtract(d, d.n, s)
}

// cmpProbe three-way compares stored bytes against a probe of either type
// without converting or allocating.
func cmpProbe[S ~string | ~[]byte](b []byte, s S) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

func (d *arrayDict) Len() int       { return d.n }
func (d *arrayDict) Format() Format { return d.format }

func (d *arrayDict) Bytes() uint64 {
	return uint64(len(d.data)) + d.offsets.Bytes() + d.c.tableBytes() + arrayOverhead
}

// arrayOverhead approximates the fixed struct and slice-header footprint.
const arrayOverhead = 64

// arrayFixed allocates the same slot for every string: the length of the
// longest one. It has no pointer array at all, which makes it both the
// fastest format and — on the numerous tiny, fixed-length dictionaries of
// real systems — often the smallest.
type arrayFixed struct {
	n    int
	slot int
	data []byte
}

func newArrayFixed(strs []string) *arrayFixed {
	slot := 0
	for _, s := range strs {
		if len(s) > slot {
			slot = len(s)
		}
	}
	d := &arrayFixed{n: len(strs), slot: slot, data: make([]byte, len(strs)*slot)}
	for i, s := range strs {
		copy(d.data[i*slot:], s)
	}
	return d
}

func (d *arrayFixed) slotBytes(id uint32) []byte {
	return d.data[int(id)*d.slot : int(id)*d.slot+d.slot]
}

func (d *arrayFixed) Extract(id uint32) string {
	return string(d.AppendExtract(nil, id))
}

func (d *arrayFixed) AppendExtract(dst []byte, id uint32) []byte {
	s := d.slotBytes(id)
	if i := bytes.IndexByte(s, 0); i >= 0 {
		s = s[:i] // strings are NUL-free, so the first NUL is padding
	}
	return append(dst, s...)
}

func (d *arrayFixed) Locate(s string) (uint32, bool) { return fixedLocate(d, s) }

// LocateBytes is the allocation-free byte-slice probe path: slots are
// compared against the probe bytes in place.
func (d *arrayFixed) LocateBytes(s []byte) (uint32, bool) { return fixedLocate(d, s) }

func fixedLocate[S ~string | ~[]byte](d *arrayFixed, s S) (uint32, bool) {
	// Padded slots compare exactly like the original strings because the
	// padding byte 0 sorts below every allowed character.
	lo, hi := 0, d.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareSlot(d.slotBytes(uint32(mid)), s) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	found := lo < d.n && compareSlot(d.slotBytes(uint32(lo)), s) == 0
	return uint32(lo), found
}

// compareSlot compares a zero-padded slot against a plain probe.
func compareSlot[S ~string | ~[]byte](slot []byte, s S) int {
	n := len(s)
	if len(slot) < n {
		n = len(slot)
	}
	for i := 0; i < n; i++ {
		if slot[i] != s[i] {
			if slot[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	// s fully matched the slot prefix.
	if len(s) >= len(slot) {
		if len(s) == len(slot) {
			return 0
		}
		return -1 // slot exhausted, s longer
	}
	if slot[len(s)] == 0 {
		return 0 // remaining slot is padding
	}
	return 1
}

func (d *arrayFixed) Len() int       { return d.n }
func (d *arrayFixed) Format() Format { return ArrayFixed }

func (d *arrayFixed) Bytes() uint64 {
	return uint64(len(d.data)) + arrayOverhead
}

// locateByExtract is the generic locate: binary search over value IDs,
// extracting the probe positions. Correct for every format because all
// formats are order-preserving. The probe is compared as raw bytes, so
// byte-slice probes never convert.
func locateByExtract[S ~string | ~[]byte](d Dictionary, n int, s S) (uint32, bool) {
	var buf []byte
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		buf = d.AppendExtract(buf[:0], uint32(mid))
		if cmpProbe(buf, s) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < n {
		buf = d.AppendExtract(buf[:0], uint32(lo))
		if cmpProbe(buf, s) == 0 {
			return uint32(lo), true
		}
	}
	return uint32(lo), false
}
