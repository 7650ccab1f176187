package blockenc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func newSealer(t testing.TB) *Sealer {
	t.Helper()
	return NewSealer(NewKeyring())
}

func TestSealOpenRoundTrip(t *testing.T) {
	s := newSealer(t)
	plain := bytes.Repeat([]byte("customerKey=ACME;region=us-west;"), 1000)
	sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(sealed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, plain) {
		t.Fatal("round trip mismatch")
	}
	// Compression must have helped on this repetitive payload even after
	// the header overhead.
	if len(sealed) > len(plain)/4 {
		t.Fatalf("sealed %d bytes for %d plaintext; expected >4:1", len(sealed), len(plain))
	}
}

func TestSealRoundTripProperty(t *testing.T) {
	s := newSealer(t)
	f := func(plain []byte) bool {
		sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
		if err != nil {
			return false
		}
		got, err := s.Open(sealed)
		return err == nil && bytes.Equal(got, plain)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSealRejectsBadClientCRC(t *testing.T) {
	s := newSealer(t)
	plain := []byte("some rows")
	if _, err := s.Seal(plain, Checksum(plain)+1, SystemKey); err == nil {
		t.Fatal("Seal accepted a wrong end-to-end CRC")
	}
}

func TestOpenDetectsEveryBitFlip(t *testing.T) {
	s := newSealer(t)
	plain := []byte("the quick brown fox jumps over the lazy dog 0123456789")
	sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		corrupt := append([]byte(nil), sealed...)
		i := rng.Intn(len(corrupt))
		corrupt[i] ^= 1 << uint(rng.Intn(8))
		got, err := s.Open(corrupt)
		if err == nil && bytes.Equal(got, plain) {
			// Flipping a bit in the (unverified) IV region would change
			// the ciphertext CRC, so literally every byte is covered.
			t.Fatalf("bit flip at byte %d went undetected", i)
		}
	}
}

func TestOpenRejectsTruncationAndGarbage(t *testing.T) {
	s := newSealer(t)
	plain := []byte("payload")
	sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < headerSize; cut++ {
		if _, err := s.Open(sealed[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := s.Open([]byte("AAAA totally not a sealed block, padded to length")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCustomerKeyIsolation(t *testing.T) {
	kr := NewKeyring()
	customer := bytes.Repeat([]byte{7}, 32)
	if err := kr.SetKey(CustomerKey, customer); err != nil {
		t.Fatal(err)
	}
	s := NewSealer(kr)
	plain := []byte("customer data")
	sealed, err := s.Seal(plain, Checksum(plain), CustomerKey)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Open(sealed)
	if err != nil || !bytes.Equal(got, plain) {
		t.Fatalf("customer-key round trip failed: %v", err)
	}
	// A keyring without the customer key cannot open the block.
	other := NewSealer(NewKeyring())
	if _, err := other.Open(sealed); err == nil {
		t.Fatal("block sealed with a customer key opened without it")
	}
}

func TestSetKeyValidatesLength(t *testing.T) {
	kr := NewKeyring()
	if err := kr.SetKey(CustomerKey, []byte("short")); err == nil {
		t.Fatal("16-byte-short key accepted")
	}
}

func TestCiphertextLooksEncrypted(t *testing.T) {
	s := newSealer(t)
	plain := bytes.Repeat([]byte("A"), 4096)
	sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		t.Fatal(err)
	}
	// The payload must not contain long runs of the plaintext byte:
	// data is "in encrypted form while being sent over RPC ... and at rest".
	if bytes.Contains(sealed[headerSize:], bytes.Repeat([]byte("A"), 16)) {
		t.Fatal("sealed payload leaks plaintext runs")
	}
}

func TestDistinctIVsPerSeal(t *testing.T) {
	s := newSealer(t)
	plain := []byte("same plaintext")
	a, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a[5:21], b[5:21]) {
		t.Fatal("IV reuse across Seal calls")
	}
	if bytes.Equal(a[headerSize:], b[headerSize:]) {
		t.Fatal("identical ciphertext for identical plaintext (CTR misuse)")
	}
}

func TestChecksumIsCRC32C(t *testing.T) {
	// Known-answer test: CRC-32C("123456789") = 0xE3069283.
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum = %08x, want E3069283 (Castagnoli)", got)
	}
}

func BenchmarkSeal2MB(b *testing.B) {
	s := newSealer(b)
	plain := bytes.Repeat([]byte("customerKey=ACME;region=us-west;qty=3;\n"), 2<<20/39)
	crc := Checksum(plain)
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Seal(plain, crc, SystemKey); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpen2MB(b *testing.B) {
	s := newSealer(b)
	plain := bytes.Repeat([]byte("customerKey=ACME;region=us-west;qty=3;\n"), 2<<20/39)
	sealed, err := s.Seal(plain, Checksum(plain), SystemKey)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(plain)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Open(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealOpen1400B seals and opens one block of an ingest
// append's size, where setting the cipher up weighs most against the
// bytes it protects.
func BenchmarkSealOpen1400B(b *testing.B) {
	s := newSealer(b)
	plain := bytes.Repeat([]byte("customerKey=ACME;region=us-west;qty=3;\n"), 36)[:1400]
	crc := Checksum(plain)
	sealed, err := s.Seal(plain, crc, SystemKey)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("seal", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Seal(plain, crc, SystemKey); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("open", func(b *testing.B) {
		b.SetBytes(int64(len(plain)))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			if buf, err = s.Open(sealed, buf...); err != nil {
				b.Fatal(err)
			}
		}
	})
}
