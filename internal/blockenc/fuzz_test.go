package blockenc

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzOpen feeds arbitrary bytes to the block envelope opener: hostile
// inputs (bad magic, truncated headers, flipped ciphertext) must be
// rejected with an error, never a panic, and the same bytes used as a
// plaintext must survive a seal/open round trip. PlainLen must read
// the length of whatever Open accepts. Opening again into a dirty
// buffer, one with room for the plaintext and the decrypted block and
// one too small for them, must give the same bytes or the same error
// as a fresh open.
func FuzzOpen(f *testing.F) {
	s := NewSealer(NewKeyring())
	for _, plain := range [][]byte{
		nil,
		[]byte("hello"),
		bytes.Repeat([]byte("clusterBy=customerKey;"), 64),
	} {
		sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(sealed)
	}
	f.Add([]byte("VXB1"))
	f.Add([]byte("VXB0not-a-block"))
	f.Add(bytes.Repeat([]byte{0}, 40))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := s.Open(data)
		for _, room := range []int{len(got) + len(data), len(got) / 2} {
			dirty := bytes.Repeat([]byte{0xa5}, room)
			again, againErr := s.Open(data, dirty...)
			if fmt.Sprint(againErr) != fmt.Sprint(err) || !bytes.Equal(again, got) {
				t.Fatalf("open into a dirty %d-byte buffer = %x, %v; fresh = %x, %v", room, again, againErr, got, err)
			}
			if len(got) > 0 && room >= len(data)+len(got) && (&again[0] != &dirty[0] || cap(again) != cap(dirty)) {
				t.Fatalf("open did not hand back all of a %d-byte buffer lent for %d bytes", room, len(got))
			}
		}
		if err == nil {
			if n := PlainLen(data); n != len(got) {
				t.Fatalf("PlainLen = %d, Open returned %d bytes", n, len(got))
			}
			// Anything Open accepts must re-seal and re-open to the same
			// plaintext.
			resealed, err := s.Seal(got, Checksum(got), SystemKey)
			if err != nil {
				t.Fatalf("re-sealing opened plaintext: %v", err)
			}
			back, err := s.Open(resealed)
			if err != nil || !bytes.Equal(back, got) {
				t.Fatalf("re-opened plaintext differs: %v", err)
			}
		}

		sealed, err := s.Seal(data, Checksum(data), SystemKey)
		if err != nil {
			t.Fatalf("sealing fuzz input: %v", err)
		}
		back, err := s.Open(sealed)
		if err != nil {
			t.Fatalf("opening sealed fuzz input: %v", err)
		}
		if !bytes.Equal(back, data) {
			t.Fatal("seal/open round trip mismatch")
		}
	})
}
