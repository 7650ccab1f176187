package snappy

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, which must refuse a
// hostile block with an error, never a panic, and never decode to more
// than maxGain times the block. Decoding again over a dirty buffer, one
// with room to spare and one a byte short, must give the same bytes or
// the same error as a fresh decode. A block it accepts must re-encode
// and decode to the same bytes, and the same bytes taken as a plaintext
// must survive Encode and Decode.
func FuzzDecode(f *testing.F) {
	for _, plain := range [][]byte{
		nil,
		[]byte("a"),
		[]byte("abcdabcdabcdabcdabcd"),
		bytes.Repeat([]byte{0}, maxBlockSize+17),
		bytes.Repeat([]byte("customerKey=ACME;region=us-west;"), 40),
	} {
		f.Add(Encode(plain))
	}
	f.Add([]byte{0x04, 0x01, 0x00})                             // copy before any output
	f.Add(append(binary.AppendUvarint(nil, 1<<30), 0, 0, 0, 0)) // preamble past what four bytes decode to
	f.Add([]byte{0x41, 0x00, 'a', 0xfe, 0x01, 0x00})            // copy-2 of 64 at offset 1
	f.Add([]byte{0x0e, 0x08, 'a', 'b', 'c', 0x1d, 0x03})        // copy-1 of 11 at offset 3

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(nil, data)
		for _, room := range []int{len(got) + 7, len(got) - 1} {
			dirty := bytes.Repeat([]byte{0xa5}, max(room, 0))
			again, againErr := Decode(dirty, data)
			if againErr != err || !bytes.Equal(again, got) {
				t.Fatalf("decode over a dirty %d-byte buffer = %x, %v; fresh = %x, %v", len(dirty), again, againErr, got, err)
			}
			if len(got) > 0 && room >= len(got) && &again[0] != &dirty[0] {
				t.Fatalf("decode did not reuse a %d-byte buffer for %d bytes", room, len(got))
			}
		}
		if err == nil {
			if len(got) > len(data)*maxGain {
				t.Fatalf("%d-byte block decoded to %d bytes", len(data), len(got))
			}
			back, err := Decode(nil, Encode(got))
			if err != nil || !bytes.Equal(back, got) {
				t.Fatalf("re-encoded block decodes differently: %v", err)
			}
		}
		back, err := Decode(nil, Encode(data))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("Decode(Encode(x)) != x: %v", err)
		}
	})
}
