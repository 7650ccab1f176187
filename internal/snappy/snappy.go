// Package snappy implements the Snappy block compression format from
// scratch. The paper's Stream Server compresses every buffered append
// with Snappy before writing it to a Fragment (§5.4.5): the codec has
// negligible CPU cost, typically compresses 4:1, and reaches 10:1 when
// string values repeat across rows. This implementation emits and parses
// the real Snappy wire format (uvarint preamble, literal and copy
// elements) so its ratios are directly comparable to the paper's claims.
package snappy

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"slices"
	"sync"
)

const (
	tagLiteral = 0x00
	tagCopy1   = 0x01
	tagCopy2   = 0x02
	tagCopy4   = 0x03

	// maxBlockSize is the largest chunk compressed with one hash table;
	// offsets within a block fit in 16 bits.
	maxBlockSize = 65536
)

// ErrCorrupt is returned when Decode encounters an invalid Snappy stream.
var ErrCorrupt = errors.New("snappy: corrupt input")

// ErrTooLarge is returned when the decoded length prefix exceeds what
// the block's own bytes could decode to.
var ErrTooLarge = errors.New("snappy: decoded block is too large")

// maxGain bounds what a block can decode to, per byte of block: its
// densest element is a three-byte copy of 64 bytes. Decode refuses a
// preamble past it before sizing its output by the preamble, so what it
// allocates is bounded by its input.
const maxGain = 22

// MaxDecodedLen returns the most a block of srcLen bytes can decode to:
// the bound Decode holds a block's length preamble to, for a caller
// that sizes something by a length it was told before decoding.
func MaxDecodedLen(srcLen int) int { return srcLen * maxGain }

// MaxEncodedLen returns the worst-case compressed size for srcLen input
// bytes. It mirrors the bound from the Snappy reference implementation.
func MaxEncodedLen(srcLen int) int {
	n := srcLen
	return 32 + n + n/6
}

// Encode compresses src, returning a freshly allocated compressed block.
func Encode(src []byte) []byte { return AppendEncode(nil, src) }

// AppendEncode appends the compressed block of src to dst: Encode into
// a buffer the caller reuses.
func AppendEncode(dst, src []byte) []byte {
	at, size := len(dst), MaxEncodedLen(len(src))
	dst = slices.Grow(dst, size)[:at+size]
	out := dst[at:]
	d := binary.PutUvarint(out, uint64(len(src)))
	for len(src) > 0 {
		block := src
		if len(block) > maxBlockSize {
			block = block[:maxBlockSize]
		}
		src = src[len(block):]
		if len(block) < 16 {
			d += emitLiteral(out[d:], block)
		} else {
			d += encodeBlock(out[d:], block)
		}
	}
	return dst[:at+d]
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

func hash(u uint32, shift uint) uint32 {
	return (u * 0x1e35a7bd) >> shift
}

// maxTableSize is the largest hash table a block gets: one entry per
// byte of the block, up to this many.
const maxTableSize = 1 << 14

// tables recycles hash tables: a block clears only the tableSize entries
// it uses, which for a small block is far less than the whole array.
var tables = sync.Pool{New: func() any { return new([maxTableSize]uint16) }}

// encodeBlock compresses a block of at least 16 and at most 65536 bytes
// using a greedy LZ77 with a 4-byte hash table, writing literal and copy
// elements into dst. It returns the number of bytes written.
func encodeBlock(dst, src []byte) (d int) {
	shift := uint(32 - 8)
	tableSize := 1 << 8
	for tableSize < maxTableSize && tableSize < len(src) {
		shift--
		tableSize *= 2
	}
	pooled := tables.Get().(*[maxTableSize]uint16)
	defer tables.Put(pooled)
	table := pooled[:tableSize]
	clear(table)

	// sLimit keeps a safety margin so 4-byte loads never run off the end.
	sLimit := len(src) - 4
	nextEmit := 0
	s := 0
	for s <= sLimit {
		h := hash(load32(src, s), shift) & uint32(tableSize-1)
		candidate := int(table[h])
		table[h] = uint16(s)
		if candidate < s && load32(src, candidate) == load32(src, s) {
			// Found a match: flush pending literals, then extend.
			d += emitLiteral(dst[d:], src[nextEmit:s])
			base := s
			s = extendMatch(src, candidate+4, s+4)
			d += emitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			// Re-prime the table at the end of the match so adjacent
			// repeats chain together.
			if s <= sLimit {
				table[hash(load32(src, s-1), shift)&uint32(tableSize-1)] = uint16(s - 1)
			}
			continue
		}
		// No match: step forward, accelerating through incompressible
		// regions (the further we go without a match, the bigger the step).
		s += 1 + (s-nextEmit)>>5
	}
	if nextEmit < len(src) {
		d += emitLiteral(dst[d:], src[nextEmit:])
	}
	return d
}

// extendMatch returns where the match of src[s:] against the earlier
// src[i:] ends: 8 bytes per step while 8 remain, the first differing
// byte found from the XOR of the two words.
func extendMatch(src []byte, i, s int) int {
	for s+8 <= len(src) {
		if x := load64(src, i) ^ load64(src, s); x != 0 {
			return s + bits.TrailingZeros64(x)>>3
		}
		i += 8
		s += 8
	}
	for s < len(src) && src[i] == src[s] {
		i++
		s++
	}
	return s
}

// emitLiteral writes a literal element for lit and returns bytes written.
func emitLiteral(dst, lit []byte) int {
	if len(lit) == 0 {
		return 0
	}
	i := 0
	n := len(lit) - 1
	switch {
	case n < 60:
		dst[0] = byte(n)<<2 | tagLiteral
		i = 1
	case n < 1<<8:
		dst[0] = 60<<2 | tagLiteral
		dst[1] = byte(n)
		i = 2
	case n < 1<<16:
		dst[0] = 61<<2 | tagLiteral
		dst[1] = byte(n)
		dst[2] = byte(n >> 8)
		i = 3
	case n < 1<<24:
		dst[0] = 62<<2 | tagLiteral
		dst[1] = byte(n)
		dst[2] = byte(n >> 8)
		dst[3] = byte(n >> 16)
		i = 4
	default:
		dst[0] = 63<<2 | tagLiteral
		binary.LittleEndian.PutUint32(dst[1:], uint32(n))
		i = 5
	}
	return i + copy(dst[i:], lit)
}

// emitCopy writes copy elements covering length bytes at the given
// back-reference offset, chunking lengths larger than one element allows.
func emitCopy(dst []byte, offset, length int) int {
	i := 0
	// Long matches: emit 64-byte copy-2 elements while more than 68
	// remain (leaving at least 4 for the final element, which must be ≥4
	// to be expressible as copy-1 and ≥1 for copy-2).
	for length >= 68 {
		dst[i] = 63<<2 | tagCopy2
		binary.LittleEndian.PutUint16(dst[i+1:], uint16(offset))
		i += 3
		length -= 64
	}
	if length > 64 {
		dst[i] = 59<<2 | tagCopy2
		binary.LittleEndian.PutUint16(dst[i+1:], uint16(offset))
		i += 3
		length -= 60
	}
	if length >= 12 || offset >= 2048 {
		dst[i] = byte(length-1)<<2 | tagCopy2
		binary.LittleEndian.PutUint16(dst[i+1:], uint16(offset))
		return i + 3
	}
	// Short copy with an 11-bit offset: length 4..11.
	dst[i] = byte(offset>>8)<<5 | byte(length-4)<<2 | tagCopy1
	dst[i+1] = byte(offset)
	return i + 2
}

// Decode decompresses src, returning the original bytes. They are
// written over the front of dst when its capacity holds them, else into
// a new slice; dst may be nil. Every byte of the result is written
// before Decode returns it, so whatever dst held does not show through.
// dst must not overlap src.
func Decode(dst, src []byte) ([]byte, error) {
	n, read := binary.Uvarint(src)
	if read <= 0 {
		return nil, ErrCorrupt
	}
	if n > uint64(MaxDecodedLen(len(src))) {
		return nil, ErrTooLarge
	}
	if uint64(cap(dst)) >= n {
		dst = dst[:n]
	} else {
		dst = make([]byte, n)
	}
	s := read
	d := 0
	for s < len(src) {
		tag := src[s] & 0x03
		switch tag {
		case tagLiteral:
			x := int(src[s] >> 2)
			s++
			switch {
			case x < 60:
				// length in tag byte
			case x == 60:
				if s >= len(src) {
					return nil, ErrCorrupt
				}
				x = int(src[s])
				s++
			case x == 61:
				if s+1 >= len(src) {
					return nil, ErrCorrupt
				}
				x = int(binary.LittleEndian.Uint16(src[s:]))
				s += 2
			case x == 62:
				if s+2 >= len(src) {
					return nil, ErrCorrupt
				}
				x = int(src[s]) | int(src[s+1])<<8 | int(src[s+2])<<16
				s += 3
			default: // 63
				if s+3 >= len(src) {
					return nil, ErrCorrupt
				}
				v := binary.LittleEndian.Uint32(src[s:])
				if uint64(v) >= uint64(len(dst)-d) {
					return nil, ErrCorrupt
				}
				x = int(v)
				s += 4
			}
			length := x + 1
			if length > len(src)-s || length > len(dst)-d {
				return nil, ErrCorrupt
			}
			copy(dst[d:], src[s:s+length])
			d += length
			s += length

		case tagCopy1:
			if s+1 >= len(src) {
				return nil, ErrCorrupt
			}
			length := int(src[s]>>2)&0x7 + 4
			offset := int(src[s]&0xe0)<<3 | int(src[s+1])
			s += 2
			if err := copyWithin(dst, &d, offset, length); err != nil {
				return nil, err
			}

		case tagCopy2:
			if s+2 >= len(src) {
				return nil, ErrCorrupt
			}
			length := int(src[s]>>2) + 1
			offset := int(binary.LittleEndian.Uint16(src[s+1:]))
			s += 3
			if err := copyWithin(dst, &d, offset, length); err != nil {
				return nil, err
			}

		case tagCopy4:
			if s+4 >= len(src) {
				return nil, ErrCorrupt
			}
			length := int(src[s]>>2) + 1
			offset := int(binary.LittleEndian.Uint32(src[s+1:]))
			s += 5
			if err := copyWithin(dst, &d, offset, length); err != nil {
				return nil, err
			}
		}
	}
	if d != len(dst) {
		return nil, ErrCorrupt
	}
	return dst, nil
}

// copyWithin performs an LZ77 back-reference copy, which may overlap
// itself (offset < length produces run-length expansion). The first
// copy takes min(offset, length) bytes; after it the bytes from
// d-offset on repeat with period offset, so each further copy can take
// as many as there are, doubling the run.
func copyWithin(dst []byte, d *int, offset, length int) error {
	if offset <= 0 || offset > *d || length > len(dst)-*d {
		return ErrCorrupt
	}
	from, to := *d-offset, *d
	for n := 0; n < length; {
		n += copy(dst[to+n:to+length], dst[from:to+n])
	}
	*d += length
	return nil
}
