package wire

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"

	"vortex/internal/schema"
)

// Scalars is a column's non-NULL values of one scalar kind, unboxed:
// what the ROS writer stripes a leaf column into and builds its value
// page from, with no schema.Value per entry. INT64, TIMESTAMP, DATE,
// NUMERIC, BOOL (0 or 1) and FLOAT64 (its IEEE bits) sit in Ints;
// STRING, JSON and BYTES back to back in Bytes, value i ending at
// Ends[i]. Two values are equal when their rowenc encodings are — the
// same integer, the same float bits, the same bytes — which is the
// equality of BuildDict and BuildRuns, so a payload built from Scalars
// is byte for byte the one the same values make as a Vector.
type Scalars struct {
	Kind  schema.Kind
	Ints  []int64
	Bytes []byte
	Ends  []int32
}

// inBytes reports whether values of kind k sit in Bytes.
func inBytes(k schema.Kind) bool {
	return k == schema.KindString || k == schema.KindJSON || k == schema.KindBytes
}

// Len returns the number of values.
func (s *Scalars) Len() int {
	if inBytes(s.Kind) {
		return len(s.Ends)
	}
	return len(s.Ints)
}

// Truncate keeps the first n values.
func (s *Scalars) Truncate(n int) {
	if !inBytes(s.Kind) {
		s.Ints = s.Ints[:n]
		return
	}
	s.Ends, s.Bytes = s.Ends[:n], s.Bytes[:s.end(n-1)]
}

// end is where value i ends in Bytes; 0 for i -1.
func (s *Scalars) end(i int) int {
	if i < 0 {
		return 0
	}
	return int(s.Ends[i])
}

// raw is value i of a bytes kind, not copied.
func (s *Scalars) raw(i int) []byte { return s.Bytes[s.end(i-1):s.Ends[i]] }

// Append adds v, a value of s's kind that is not NULL.
func (s *Scalars) Append(v schema.Value) {
	switch s.Kind {
	case schema.KindFloat64:
		s.Ints = append(s.Ints, int64(math.Float64bits(v.AsFloat64())))
	case schema.KindBool:
		b := int64(0)
		if v.AsBool() {
			b = 1
		}
		s.Ints = append(s.Ints, b)
	case schema.KindString, schema.KindJSON, schema.KindBytes:
		s.Bytes = v.AppendBytes(s.Bytes)
		s.Ends = append(s.Ends, int32(len(s.Bytes)))
	default:
		s.Ints = append(s.Ints, v.AsInt64())
	}
}

// AppendRows adds the rows of v, a typed vector of s's kind, that rows
// lists and v does not hold as NULL, in the order rows lists them.
func (s *Scalars) AppendRows(v *Vector, rows []int32) {
	switch v.Kind {
	case schema.KindFloat64:
		for _, i := range rows {
			if v.Valid.Has(int(i)) {
				s.Ints = append(s.Ints, int64(math.Float64bits(v.Floats[i])))
			}
		}
	case schema.KindString, schema.KindJSON:
		for _, i := range rows {
			if v.Valid.Has(int(i)) {
				s.Bytes = append(s.Bytes, v.Str[v.Offs[i]:v.Offs[i+1]]...)
				s.Ends = append(s.Ends, int32(len(s.Bytes)))
			}
		}
	default:
		for _, i := range rows {
			if v.Valid.Has(int(i)) {
				s.Ints = append(s.Ints, v.Ints[i])
			}
		}
	}
}

// Value returns value i; a STRING, JSON or BYTES value is copied out of
// Bytes, which the caller may go on to reuse.
func (s *Scalars) Value(i int) schema.Value {
	switch s.Kind {
	case schema.KindFloat64:
		return schema.Float64(math.Float64frombits(uint64(s.Ints[i])))
	case schema.KindString:
		return schema.String(string(s.raw(i)))
	case schema.KindJSON:
		return schema.RawJSON(string(s.raw(i)))
	case schema.KindBytes:
		return schema.Bytes(s.raw(i))
	}
	return schema.IntOf(s.Kind, s.Ints[i])
}

// MinMax returns the indexes of the least and the greatest value as
// schema.Value.Compare orders them, the first seen of equals; both are
// -1 when there is no value.
func (s *Scalars) MinMax() (lo, hi int) {
	n := s.Len()
	if n == 0 {
		return -1, -1
	}
	switch s.Kind {
	case schema.KindFloat64:
		fl := func(i int) float64 { return math.Float64frombits(uint64(s.Ints[i])) }
		mn, mx := fl(0), fl(0)
		for i := 1; i < n; i++ {
			if x := fl(i); x < mn {
				mn, lo = x, i
			} else if x > mx {
				mx, hi = x, i
			}
		}
	case schema.KindString, schema.KindJSON, schema.KindBytes:
		for i := 1; i < n; i++ {
			if x := s.raw(i); bytes.Compare(x, s.raw(lo)) < 0 {
				lo = i
			} else if bytes.Compare(x, s.raw(hi)) > 0 {
				hi = i
			}
		}
	default:
		mn, mx := s.Ints[0], s.Ints[0]
		for i, x := range s.Ints[1:] {
			if x < mn {
				mn, lo = x, i+1
			} else if x > mx {
				mx, hi = x, i+1
			}
		}
	}
	return lo, hi
}

// valueLen is the length of value i's rowenc encoding.
func (s *Scalars) valueLen(i int) int {
	switch s.Kind {
	case schema.KindBool:
		return 2
	case schema.KindFloat64:
		return 9
	case schema.KindString, schema.KindJSON, schema.KindBytes:
		n := int(s.Ends[i]) - s.end(i-1)
		return 1 + uvarintLen(n) + n
	}
	return 1 + zigzagLen(s.Ints[i])
}

// zigzagLen is the length of x as a varint.
func zigzagLen(x int64) int { return uvarintLen(int(uint64(x<<1) ^ uint64(x>>63))) }

// appendValue appends value i's rowenc encoding.
func (s *Scalars) appendValue(dst []byte, i int) []byte {
	dst = append(dst, byte(s.Kind))
	switch s.Kind {
	case schema.KindBool:
		return append(dst, byte(s.Ints[i]))
	case schema.KindFloat64:
		return binary.LittleEndian.AppendUint64(dst, uint64(s.Ints[i]))
	case schema.KindString, schema.KindJSON, schema.KindBytes:
		b := s.raw(i)
		return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
	}
	return binary.AppendVarint(dst, s.Ints[i])
}

// Layout is what one pass over Scalars learns for an encoding policy:
// the length of each payload the values can be stored as, PLAIN always,
// DICT and RLE where the dictionary and the runs stay within the
// bounds the pass was given. Its buffers are reused by the next
// Measure, so a writer that keeps one sizes every page it builds with
// the dictionary and the codes of the largest.
type Layout struct {
	PlainLen int
	DictLen  int // -1: more distinct values than the bound
	RunsLen  int // -1: more runs than the bound

	first  []int32  // DICT: the value each entry is, in first-seen order
	codes  []uint32 // DICT: each value's entry
	starts []int32  // RLE: each run's first value
	// slots is an open-addressing set of the dictionary's entries: 1 +
	// the first value of an entry, 0 for an empty slot. Equal values
	// land on the same entry by Scalars' own equality, so nothing is
	// copied out of the values to key it.
	slots []int32
}

// Measure sizes the payloads of s: the DICT one as long as s has at
// most maxDistinct distinct values, and the RLE one as long as it has
// at most maxRuns runs of equal neighbours. Equal neighbours share an
// entry, so a value is looked up in the dictionary only where a run
// begins; once both bounds are passed, the pass stops.
func (l *Layout) Measure(s *Scalars, maxDistinct, maxRuns int) {
	n := s.Len()
	l.first, l.starts = l.first[:0], l.starts[:0]
	dict, runs := maxDistinct > 0, true
	if dict {
		l.codes = slices.Grow(l.codes[:0], n)[:n]
		size := 1 << bits.Len(uint(2*min(maxDistinct, n)))
		l.slots = slices.Grow(l.slots[:0], size)[:size]
		clear(l.slots)
	}
	for i := 0; i < n && (dict || runs); i++ {
		if i > 0 && s.equal(i, i-1) {
			if dict {
				l.codes[i] = l.codes[i-1]
			}
			continue
		}
		if runs && len(l.starts) >= maxRuns {
			runs = false
		} else if runs {
			l.starts = append(l.starts, int32(i))
		}
		if !dict {
			continue
		}
		slot := l.slot(s, i)
		if e := l.slots[slot]; e > 0 {
			l.codes[i] = l.codes[e-1]
			continue
		}
		if len(l.first) >= maxDistinct {
			dict = false
			continue
		}
		l.slots[slot] = int32(i + 1)
		l.codes[i] = uint32(len(l.first))
		l.first = append(l.first, int32(i))
	}
	l.PlainLen, l.DictLen, l.RunsLen = 0, -1, -1
	for i := 0; i < n; i++ {
		l.PlainLen += s.valueLen(i)
	}
	if dict {
		l.DictLen = uvarintLen(len(l.first))
		for _, i := range l.first {
			l.DictLen += s.valueLen(int(i))
		}
		for _, c := range l.codes {
			l.DictLen += uvarintLen(int(c))
		}
	}
	if runs {
		l.RunsLen = 0
		for k, i := range l.starts {
			l.RunsLen += uvarintLen(l.runEnd(k, n)-int(i)) + s.valueLen(int(i))
		}
	}
}

// slot is where value i of s is in slots, or where it goes: probing
// from its hash on, the first slot that is empty or holds an equal
// value. slots always has an empty one: it has twice the room the
// dictionary may take.
func (l *Layout) slot(s *Scalars, i int) int {
	var h uint64
	if inBytes(s.Kind) {
		h = maphash.Bytes(hashSeed, s.raw(i))
	} else {
		h = uint64(s.Ints[i]) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	mask := len(l.slots) - 1
	for at := int(h) & mask; ; at = (at + 1) & mask {
		if e := l.slots[at]; e == 0 || s.equal(int(e-1), i) {
			return at
		}
	}
}

// hashSeed seeds the dictionary's hashes; which slot an entry takes
// never shows in a payload.
var hashSeed = maphash.MakeSeed()

// runEnd is where run k of n values ends.
func (l *Layout) runEnd(k, n int) int {
	if k+1 < len(l.starts) {
		return int(l.starts[k+1])
	}
	return n
}

// equal reports whether values i and j have one rowenc encoding.
func (s *Scalars) equal(i, j int) bool {
	if inBytes(s.Kind) {
		return bytes.Equal(s.raw(i), s.raw(j))
	}
	return s.Ints[i] == s.Ints[j]
}

// AppendPayload appends the payload of s under enc — PLAIN, or DICT or
// RLE where l, which last measured s, sized it — the bytes
// ColumnPayload writes for a Vector of the same values in that
// encoding.
func (s *Scalars) AppendPayload(dst []byte, l *Layout, enc byte) []byte {
	n := s.Len()
	switch enc {
	case BatchEncDict:
		dst = binary.AppendUvarint(dst, uint64(len(l.first)))
		for _, i := range l.first {
			dst = s.appendValue(dst, int(i))
		}
		for _, c := range l.codes {
			dst = binary.AppendUvarint(dst, uint64(c))
		}
	case BatchEncRLE:
		for k, i := range l.starts {
			dst = binary.AppendUvarint(dst, uint64(l.runEnd(k, n)-int(i)))
			dst = s.appendValue(dst, int(i))
		}
	default:
		for i := 0; i < n; i++ {
			dst = s.appendValue(dst, i)
		}
	}
	return dst
}
