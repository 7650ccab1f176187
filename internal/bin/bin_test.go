package bin

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestReaderReadsWhatTheEncodersWrite(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = append(b, 0xab)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<40+3)
	b = binary.AppendUvarint(b, 3)
	b = append(b, "abc"...)
	b = binary.AppendUvarint(b, 2) // a count of two 1-byte elements
	b = append(b, 'x', 'y')

	r := NewReader(b)
	if v := r.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := r.Varint(); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if v := r.Byte(); v != 0xab {
		t.Fatalf("Byte = %#x", v)
	}
	if v := r.Uint32(); v != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x", v)
	}
	if v := r.Uint64(); v != 1<<40+3 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := r.Block(); string(v) != "abc" {
		t.Fatalf("Block = %q", v)
	}
	if n := r.Count(1); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if v := r.Bytes(2); string(v) != "xy" {
		t.Fatalf("Bytes = %q", v)
	}
	if r.Err() != nil || r.Len() != 0 || r.Pos() != len(b) {
		t.Fatalf("err %v, %d left, at %d of %d", r.Err(), r.Len(), r.Pos(), len(b))
	}
}

// TestReaderRefuses pins each refusal: a length or count is compared as
// the uint64 it was read as, so none wraps, and a failure sticks.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
		read func(*Reader)
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Uvarint() }},
		{"torn uvarint", []byte{0x80}, func(r *Reader) { r.Uvarint() }},
		{"11-byte uvarint", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		{"block past the end", []byte{4, 'a'}, func(r *Reader) { r.Block() }},
		{"block length 2^63+5", append(binary.AppendUvarint(nil, 1<<63+5), 'a'), func(r *Reader) { r.Block() }},
		{"block length 2^64-1", binary.AppendUvarint(nil, 1<<64-1), func(r *Reader) { r.Block() }},
		{"short uint32", []byte{1, 2, 3}, func(r *Reader) { r.Uint32() }},
		{"count past the bytes", []byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		{"count of 6-byte elements", append([]byte{2}, make([]byte, 11)...), func(r *Reader) { r.Count(6) }},
		{"count 2^64-1", binary.AppendUvarint(nil, 1<<64-1), func(r *Reader) { r.Count(1) }},
	} {
		r := NewReader(tc.data)
		tc.read(r)
		if r.Err() == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		// Sticky: every later read returns zero and the first error stays.
		first := r.Err()
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Count(1) != 0 || len(r.Block()) != 0 || r.Len() != 0 || r.Err() != first {
			t.Errorf("%s: a read after the failure returned data or replaced the error", tc.name)
		}
	}
	// The boundary: a count whose elements exactly fill what remains.
	r := NewReader(append([]byte{2}, make([]byte, 12)...))
	if n := r.Count(6); n != 2 || r.Err() != nil {
		t.Fatalf("Count(6) over 12 bytes = %d, %v", n, r.Err())
	}
}

// FuzzReader runs arbitrary bytes through an op script: each op byte
// picks a read and, for Count, the bytes each element spends. Nothing
// may panic, no read may return bytes past the slice or move backwards,
// and Count may never return more than remaining ÷ minBytes.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{5, 'h', 'e', 'l', 'l', 'o', 0x96, 0x01, 2, 9, 9})
	f.Add([]byte{6, 6, 14, 22}, []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 1, 2})
	f.Add([]byte{4, 4}, binary.AppendUvarint(nil, 1<<63+5))
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		for _, op := range ops {
			before := r.Pos()
			var got []byte
			switch op % 8 {
			case 0:
				r.Byte()
			case 1:
				r.Uvarint()
			case 2:
				r.Varint()
			case 3:
				r.Uint32()
			case 4:
				got = r.Block()
			case 5:
				got = r.Bytes(uint64(op >> 3))
			case 6:
				min := int(op>>3)%8 + 1
				n := r.Count(min)
				if r.Err() == nil && n*min > r.Len() {
					t.Fatalf("Count(%d) = %d with %d bytes left", min, n, r.Len())
				}
				if r.Err() != nil && n != 0 {
					t.Fatalf("a refused Count returned %d", n)
				}
			case 7:
				r.Uint64()
			}
			if r.Pos() < before || r.Pos() > len(data) || r.Pos()+r.Len() != len(data) {
				t.Fatalf("position %d after %d, %d left, %d-byte input", r.Pos(), before, r.Len(), len(data))
			}
			if r.Err() == nil && len(got) > r.Pos()-before {
				t.Fatalf("read %d bytes, advanced %d", len(got), r.Pos()-before)
			}
			if r.Err() == nil && got != nil && !bytes.Equal(got, data[r.Pos()-len(got):r.Pos()]) {
				t.Fatal("returned bytes are not the ones just read")
			}
		}
	})
}

// TestTaggedVarintsReadsWhatTheLoopReads holds TaggedVarints to the
// Peek, Byte, Varint loop it replaces: the same values, the same
// count, the same position and the same verdict, at a tag change, at
// dst's end, over 9- and 10-byte varints, a torn one, an overflowing
// one and an overlong one.
func TestTaggedVarintsReadsWhatTheLoopReads(t *testing.T) {
	const tag = 2
	pairs := func(ns ...int64) []byte {
		var b []byte
		for _, n := range ns {
			b = binary.AppendVarint(append(b, tag), n)
		}
		return b
	}
	long := pairs(1<<55, -1<<62, 1<<62, -1<<63, 1<<63-1) // 9- and 10-byte varints
	for _, tc := range []struct {
		name string
		data []byte
		room int
	}{
		{"empty", nil, 4},
		{"one-byte values", pairs(0, -1, 63, -64), 8},
		{"dst full first", pairs(1, 2, 3), 2},
		{"tag change", append(pairs(300, -300), 0x10, tag, 1), 8},
		{"long varints", long, 8},
		{"long varints at the end", long[:len(long)-1], 8},
		{"torn at the end", append(pairs(5), tag, 0x80, 0x80), 8},
		{"tag at the end", append(pairs(5), tag), 8},
		{"tenth byte past 1", append(append(pairs(5), tag), append(bytes.Repeat([]byte{0xff}, 9), 0x02)...), 8},
		{"eleven bytes", append(append([]byte{tag}, bytes.Repeat([]byte{0x80}, 10)...), 0x00, tag, 1), 8},
		{"overlong zero", []byte{tag, 0x80, 0x80, 0x00, tag, 0x80, 0x00}, 8},
	} {
		want := make([]int64, tc.room)
		or := NewReader(tc.data)
		n := 0
		for ; n < tc.room; n++ {
			if b, ok := or.Peek(); !ok || b != tag {
				break
			}
			or.Byte()
			want[n] = or.Varint()
			if or.Err() != nil {
				n++
				break
			}
		}
		got := make([]int64, tc.room)
		r := NewReader(tc.data)
		if k := r.TaggedVarints(tag, got); k != n || r.Pos() != or.Pos() || (r.Err() == nil) != (or.Err() == nil) {
			t.Errorf("%s: read %d to %d, err %v; the loop read %d to %d, err %v", tc.name, k, r.Pos(), r.Err(), n, or.Pos(), or.Err())
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s: value %d = %d, the loop read %d", tc.name, i, got[i], want[i])
			}
		}
	}
}
