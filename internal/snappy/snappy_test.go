package snappy

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, src []byte) {
	t.Helper()
	enc := Encode(src)
	got, err := Decode(nil, enc)
	if err != nil {
		t.Fatalf("Decode(%d bytes): %v", len(src), err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch for %d-byte input", len(src))
	}
}

func TestRoundTripBasics(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		[]byte("a"),
		[]byte("abcd"),
		[]byte("abcdabcdabcdabcd"),
		[]byte(strings.Repeat("x", 100000)),
		[]byte(strings.Repeat("the quick brown fox ", 5000)),
		bytes.Repeat([]byte{0}, maxBlockSize+17), // spans block boundary
	}
	for _, c := range cases {
		roundTrip(t, c)
	}
}

func TestRoundTripRandomIncompressible(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 15, 16, 17, 100, 4096, 65535, 65536, 65537, 200000} {
		src := make([]byte, n)
		rng.Read(src)
		roundTrip(t, src)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(src []byte) bool {
		enc := Encode(src)
		got, err := Decode(nil, enc)
		return err == nil && bytes.Equal(got, src)
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripStructuredProperty(t *testing.T) {
	// Structured inputs (repeated fields, shared prefixes) stress the
	// copy-emission paths more than uniform random bytes.
	f := func(seed int64, rows uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var b bytes.Buffer
		words := []string{"alpha", "beta", "gamma", "delta", "customerKey", "2023-10-01"}
		for i := 0; i < int(rows)+1; i++ {
			for j := 0; j < 5; j++ {
				b.WriteString(words[rng.Intn(len(words))])
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		enc := Encode(b.Bytes())
		got, err := Decode(nil, enc)
		return err == nil && bytes.Equal(got, b.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionRatioMatchesPaperClaims(t *testing.T) {
	// §5.4.5: "typical compression ratio is 4:1 but can be 10:1 if values
	// of string fields are common between many rows".
	var typical bytes.Buffer
	rng := rand.New(rand.NewSource(3))
	cities := []string{"Kirkland", "Santiago", "Seattle", "Zurich", "Dublin", "Tokyo"}
	products := []string{"widget-a", "widget-b", "gadget-x", "gadget-y"}
	for i := 0; i < 5000; i++ {
		typical.WriteString(cities[rng.Intn(len(cities))])
		typical.WriteByte(',')
		typical.WriteString(products[rng.Intn(len(products))])
		typical.WriteString(",qty=")
		typical.WriteByte(byte('0' + rng.Intn(10)))
		typical.WriteString(",order-2023-10-0")
		typical.WriteByte(byte('1' + rng.Intn(9)))
		typical.WriteByte('\n')
	}
	ratio := float64(typical.Len()) / float64(len(Encode(typical.Bytes())))
	if ratio < 3.0 {
		t.Errorf("typical structured data compressed %.1f:1, paper claims ~4:1", ratio)
	}

	highlyRepetitive := bytes.Repeat([]byte("customerKey=ACME-ENTERPRISES-LLC;region=us-west;"), 4000)
	ratio = float64(len(highlyRepetitive)) / float64(len(Encode(highlyRepetitive)))
	if ratio < 10.0 {
		t.Errorf("repetitive strings compressed %.1f:1, paper claims up to 10:1", ratio)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	cases := [][]byte{
		{}, // no preamble
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, // overlong uvarint
		{0x04, 0x0c, 'a'},      // literal length 4 but only 1 byte present
		{0x04, 0x01, 0x00},     // copy-1 before any output exists
		{0x02, 0xf0},           // literal tag runs past input
		{0x01, 0x00, 'a', 'b'}, // trailing garbage: decoded longer than header
	}
	for i, c := range cases {
		if _, err := Decode(nil, c); err == nil {
			t.Errorf("case %d: Decode accepted corrupt input", i)
		}
	}
}

func TestDecodeRejectsHugeLength(t *testing.T) {
	// A length prefix of 2^40 must fail fast, not allocate a terabyte.
	var pre [9]byte
	pre[0] = 0x80
	pre[1] = 0x80
	pre[2] = 0x80
	pre[3] = 0x80
	pre[4] = 0x80
	pre[5] = 0x20
	if _, err := Decode(nil, pre[:6]); err == nil {
		t.Fatal("Decode accepted a 2^41-byte length prefix")
	}
}

func TestMaxEncodedLenIsSufficient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 100, 65536, 300000} {
		src := make([]byte, n)
		rng.Read(src)
		if got := len(Encode(src)); got > MaxEncodedLen(n) {
			t.Fatalf("Encode produced %d bytes > MaxEncodedLen(%d) = %d", got, n, MaxEncodedLen(n))
		}
	}
}

func TestOverlappingCopyExpansion(t *testing.T) {
	// offset < length exercises the run-length-expansion path in
	// copyWithin: "ababab..." patterns.
	src := bytes.Repeat([]byte("ab"), 10000)
	roundTrip(t, src)
	if enc := Encode(src); len(enc) > len(src)/20 {
		t.Errorf("2-byte period should compress >20:1, got %d -> %d", len(src), len(enc))
	}
}

// TestCopyWithinMatchesTheByteLoop: for every offset up to and past the
// length, the doubling copy leaves what copying one byte at a time does.
func TestCopyWithinMatchesTheByteLoop(t *testing.T) {
	prefix := []byte("0123456789abcdefghij")
	for offset := 1; offset <= len(prefix); offset++ {
		for length := 1; length <= 70; length++ {
			got := append(append([]byte(nil), prefix...), make([]byte, length)...)
			want := slices.Clone(got)
			d := len(prefix)
			if err := copyWithin(got, &d, offset, length); err != nil || d != len(got) {
				t.Fatalf("offset %d length %d: %v, end %d", offset, length, err, d)
			}
			for i := len(prefix); i < len(want); i++ {
				want[i] = want[i-offset]
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("offset %d length %d: %q, want %q", offset, length, got, want)
			}
		}
	}
}

// byteLoopEncodeBlock is encodeBlock as it was written first: a zeroed
// table of maxTableSize entries per block and a match extended one byte
// at a time. encodeBlock must make the same parse, so Encode's bytes —
// and every ROS page and WOS block written with them — stay the same.
func byteLoopEncodeBlock(dst, src []byte) (d int) {
	shift := uint(32 - 8)
	tableSize := 1 << 8
	for tableSize < maxTableSize && tableSize < len(src) {
		shift--
		tableSize *= 2
	}
	var table [maxTableSize]uint16
	sLimit := len(src) - 4
	nextEmit := 0
	s := 0
	for s <= sLimit {
		h := hash(load32(src, s), shift) & uint32(tableSize-1)
		candidate := int(table[h])
		table[h] = uint16(s)
		if candidate < s && load32(src, candidate) == load32(src, s) {
			d += emitLiteral(dst[d:], src[nextEmit:s])
			base := s
			i := candidate + 4
			s += 4
			for s < len(src) && src[i] == src[s] {
				i++
				s++
			}
			d += emitCopy(dst[d:], base-candidate, s-base)
			nextEmit = s
			if s <= sLimit {
				table[hash(load32(src, s-1), shift)&uint32(tableSize-1)] = uint16(s - 1)
			}
			continue
		}
		s += 1 + (s-nextEmit)>>5
	}
	if nextEmit < len(src) {
		d += emitLiteral(dst[d:], src[nextEmit:])
	}
	return d
}

// TestEncodeBlockKeepsTheByteLoopsParse: blocks of every table size, in
// an order where a small block follows a large one on a recycled table,
// encode to exactly the bytes of the byte-loop encoder.
func TestEncodeBlockKeepsTheByteLoopsParse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	words := []string{"alpha", "beta", "customerKey=", "2023-10-01", "\x00\x00\x00\x00", "region=us-west;"}
	for round := 0; round < 200; round++ {
		n := 16 + rng.Intn(maxBlockSize-16)
		if round%2 == 1 {
			n = 16 + rng.Intn(600) // a small table after a large one
		}
		var b bytes.Buffer
		for b.Len() < n {
			switch rng.Intn(3) {
			case 0:
				b.WriteString(words[rng.Intn(len(words))])
			case 1:
				b.WriteByte(byte(rng.Intn(4)))
			default:
				b.Write(bytes.Repeat([]byte{byte(rng.Intn(256))}, rng.Intn(40)))
			}
		}
		src := b.Bytes()[:n]
		got := make([]byte, MaxEncodedLen(n))
		want := make([]byte, MaxEncodedLen(n))
		g, w := encodeBlock(got, src), byteLoopEncodeBlock(want, src)
		if !bytes.Equal(got[:g], want[:w]) {
			t.Fatalf("round %d: %d-byte block encodes to %d bytes, the byte loop to %d", round, n, g, w)
		}
	}
}

func BenchmarkEncodeStructured(b *testing.B) {
	src := bytes.Repeat([]byte("customerKey=ACME;region=us-west;qty=3;total=99.90\n"), 2000)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(src)
	}
}

// BenchmarkEncodeSmall encodes one block the size of a 16-row append
// payload (1 288 bytes): the size where preparing the hash table, not
// matching, is most of the work.
func BenchmarkEncodeSmall(b *testing.B) {
	src := bytes.Repeat([]byte("customerKey=ACME;region=us-west;qty=3;total=99.90\n"), 26)[:1288]
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(src)
	}
}

func BenchmarkDecodeStructured(b *testing.B) {
	src := bytes.Repeat([]byte("customerKey=ACME;region=us-west;qty=3;total=99.90\n"), 2000)
	enc := Encode(src)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(nil, enc); err != nil {
			b.Fatal(err)
		}
	}
}
