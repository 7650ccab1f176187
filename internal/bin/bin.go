// Package bin reads the length-prefixed binary formats that arrive from
// a peer or a disk: rows, record batches and column pages, ROS and WOS
// files, disk-tier entries and typed rpc errors. It holds the one rule
// for a length or count read from untrusted bytes: compare it, as the
// uint64 it was read as, against the bytes that remain before anything
// is sliced or sized by it — so no length can wrap negative, and a few
// bytes cannot claim a count that allocates gigabytes.
//
// Errors are sticky: the first failed read records why, every later read
// returns a zero value, and Err reports the failure. A decoder reads a
// whole section and checks Err once. A loop bounded by a count still
// ends after a failure, because Count returns 0 once one is recorded.
package bin

import (
	"encoding/binary"
	"errors"
	"fmt"
)

var (
	errShort    = errors.New("read past the end of the input")
	errOverflow = errors.New("varint overflows 64 bits")
)

// Reader reads a byte slice front to back.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader over data. Bytes and Block return slices
// of data, not copies.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first failure recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Pos returns the number of bytes read so far.
func (r *Reader) Pos() int { return r.pos }

// Len returns the number of bytes that remain; none once a read failed.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Fail records err as the Reader's failure unless one is recorded
// already: a decoder's own refusal (a bad tag, a count past a cap)
// stops every later read the same way a short read does.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.pos = len(r.data)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.pos >= len(r.data) {
		r.Fail(errShort)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// Peek returns the next byte without reading it; false when none
// remains.
func (r *Reader) Peek() (byte, bool) {
	if r.pos >= len(r.data) {
		return 0, false
	}
	return r.data[r.pos], true
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.pos < len(r.data) && r.data[r.pos] < 0x80 {
		v := r.data[r.pos]
		r.pos++
		return uint64(v)
	}
	return r.uvarint()
}

// uvarint is Uvarint past its one-byte case.
func (r *Reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data[r.pos:])
	switch {
	case n == 0:
		r.Fail(errShort)
		return 0
	case n < 0:
		r.Fail(errOverflow)
		return 0
	}
	r.pos += n
	return v
}

// Varint reads a zig-zag signed varint.
func (r *Reader) Varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// TaggedVarints reads tag byte + zig-zag varint pairs into dst, front
// to back, while the next byte is tag and dst has room, and returns how
// many it read. It reads what a Peek, Byte, Varint loop reads, in one
// loop; a failed varint is recorded as Varint records it, and counted.
func (r *Reader) TaggedVarints(tag byte, dst []int64) int {
	data, pos := r.data, r.pos
	for i := range dst {
		if pos >= len(data) || data[pos] != tag {
			r.pos = pos
			return i
		}
		pos++
		var u uint64
		for shift := uint(0); ; shift += 7 {
			if pos == len(data) || shift == 63 {
				// A torn varint or a tenth byte: Uvarint's checks decide.
				r.pos = pos - int(shift/7)
				if u = r.uvarint(); r.err != nil {
					dst[i] = 0
					return i + 1
				}
				pos = r.pos
				break
			}
			b := data[pos]
			pos++
			u |= uint64(b&0x7f) << shift
			if b < 0x80 {
				break
			}
		}
		dst[i] = int64(u>>1) ^ -int64(u&1)
	}
	r.pos = pos
	return len(dst)
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if b := r.Bytes(4); len(b) == 4 {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	if b := r.Bytes(8); len(b) == 8 {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bytes reads the next n bytes. n is compared, as the uint64 it is,
// against the bytes that remain, so a length read off the input can be
// passed as it was read.
func (r *Reader) Bytes(n uint64) []byte {
	if n > uint64(len(r.data)-r.pos) {
		r.Fail(errShort)
		return nil
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

// Block reads a uvarint length and that many bytes.
func (r *Reader) Block() []byte { return r.Bytes(r.Uvarint()) }

// Count reads a uvarint count of elements that each spend at least
// minBytes (>= 1) of the input, and refuses one that the bytes that
// remain could not hold — before the caller sizes anything by it.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if left := uint64(len(r.data) - r.pos); n > left/uint64(minBytes) {
		r.Fail(fmt.Errorf("count %d of %d-byte elements in %d bytes", n, minBytes, left))
		return 0
	}
	return int(n)
}
