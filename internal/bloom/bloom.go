// Package bloom implements split-block Bloom filters over column values.
//
// The paper uses Bloom filters in two places: each finalized Fragment
// carries a filter marking "which key values are present for the
// partitioning and clustering columns" (§5.4.4), and Big Metadata stores
// column-property filters used for partition elimination (§7.2). A filter
// must never report a present value as absent (no false negatives); false
// positives merely cost an unnecessary scan.
package bloom

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Filter is a split-block Bloom filter: the bit array is divided into
// 32-byte (256-bit) blocks and each key sets 8 bits inside a single
// block, giving cache-friendly probes (the scheme used by Parquet).
type Filter struct {
	blocks []block
	count  uint64 // number of keys added
}

type block [8]uint32

// salts spread one 32-bit hash into 8 bit positions within a block.
var salts = [8]uint32{
	0x47b6137b, 0x44974d91, 0x8824ad5b, 0xa2b7289d,
	0x705495c7, 0x2df1424b, 0x9efc4947, 0x5c6bfb31,
}

// New returns a filter sized for expectedKeys at the given false-positive
// rate (e.g. 0.01). The filter grows in whole blocks.
func New(expectedKeys int, fpRate float64) *Filter {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	// Standard bloom sizing: m = -n*ln(p)/(ln2)^2 bits, rounded up to blocks.
	bits := -float64(expectedKeys) * math.Log(fpRate) / (math.Ln2 * math.Ln2)
	nblocks := int(math.Ceil(bits / 256))
	if nblocks < 1 {
		nblocks = 1
	}
	return &Filter{blocks: make([]block, nblocks)}
}

func (f *Filter) mask(h uint32) block {
	var m block
	for i := 0; i < 8; i++ {
		// One bit per 32-bit word of the block.
		bit := (h * salts[i]) >> 27
		m[i] = 1 << bit
	}
	return m
}

// hash64 hashes b with 64-bit FNV-1a and finishes with the murmur3
// mixer; the high half selects the block and the low half drives the
// in-block mask. FNV alone leaves keys that differ only in their last
// bytes — customer-00041, customer-00042 — in a few neighbouring blocks,
// which a filter of a dozen blocks cannot absorb: at 306 such keys the
// measured false-positive rate was 7.8 % where the sizing aims at 1 %.
func hash64[T string | []byte](b T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= prime64
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) { f.addHash(hash64(key)) }

func (f *Filter) addHash(h uint64) {
	bi := (h >> 32) % uint64(len(f.blocks))
	m := f.mask(uint32(h))
	blk := &f.blocks[bi]
	for i := 0; i < 8; i++ {
		blk[i] |= m[i]
	}
	f.count++
}

// AddString inserts a string key.
func (f *Filter) AddString(key string) { f.addHash(hash64(key)) }

// Contains reports whether key may have been added. False positives are
// possible; false negatives are not.
func (f *Filter) Contains(key []byte) bool { return f.containsHash(hash64(key)) }

func (f *Filter) containsHash(h uint64) bool {
	bi := (h >> 32) % uint64(len(f.blocks))
	m := f.mask(uint32(h))
	blk := &f.blocks[bi]
	for i := 0; i < 8; i++ {
		if blk[i]&m[i] != m[i] {
			return false
		}
	}
	return true
}

// ContainsString reports whether the string key may have been added.
func (f *Filter) ContainsString(key string) bool { return f.containsHash(hash64(key)) }

// Count returns the number of keys added: Add calls, or for a filter a
// Builder made, distinct keys (until the builder ran past its bound).
func (f *Filter) Count() uint64 { return f.count }

const marshalMagic = 0x424c4d31 // "BLM1"

// Marshal serializes the filter: magic, block count, key count, blocks.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 16+len(f.blocks)*32)
	binary.LittleEndian.PutUint32(out[0:], marshalMagic)
	binary.LittleEndian.PutUint32(out[4:], uint32(len(f.blocks)))
	binary.LittleEndian.PutUint64(out[8:], f.count)
	off := 16
	for _, blk := range f.blocks {
		for _, w := range blk {
			binary.LittleEndian.PutUint32(out[off:], w)
			off += 4
		}
	}
	return out
}

// Unmarshal parses a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 16 {
		return nil, errors.New("bloom: truncated header")
	}
	if binary.LittleEndian.Uint32(data) != marshalMagic {
		return nil, errors.New("bloom: bad magic")
	}
	n := int(binary.LittleEndian.Uint32(data[4:]))
	count := binary.LittleEndian.Uint64(data[8:])
	if n < 1 || len(data) != 16+n*32 {
		return nil, fmt.Errorf("bloom: size mismatch: %d blocks vs %d bytes", n, len(data))
	}
	f := &Filter{blocks: make([]block, n), count: count}
	off := 16
	for i := range f.blocks {
		for j := 0; j < 8; j++ {
			f.blocks[i][j] = binary.LittleEndian.Uint32(data[off:])
			off += 4
		}
	}
	return f, nil
}

// Builder sizes a filter from the keys it is given instead of from a
// guess made before the first one: it keeps the distinct 64-bit key
// hashes of one file or fragment while rows arrive, and Build makes a
// filter for exactly that many keys at fpRate. A file of 43 customers
// then carries 80 bytes of filter, not the 78 KB a fixed 64 K-key filter
// costs whatever it holds — in the file, in its metadata record and in
// every read view that record travels in.
//
// The set is bounded: once more than maxKeys distinct keys have arrived
// the builder falls back to a fixed filter sized for maxKeys and adds to
// it directly, so neither the set nor the filter grows past that size.
type Builder struct {
	maxKeys int
	hashes  map[uint64]struct{}
	over    *Filter // non-nil once the set outgrew maxKeys
}

const fpRate = 0.01

// NewBuilder returns a builder whose filter is sized for at most
// maxKeys distinct keys.
func NewBuilder(maxKeys int) *Builder {
	return &Builder{maxKeys: maxKeys, hashes: make(map[uint64]struct{})}
}

// AddString records a key.
func (b *Builder) AddString(key string) {
	h := hash64(key)
	if b.over != nil {
		b.over.addHash(h)
		return
	}
	b.hashes[h] = struct{}{}
	if len(b.hashes) > b.maxKeys {
		b.over, b.hashes = b.filter(), nil
	}
}

// Build returns the filter over every key recorded so far.
func (b *Builder) Build() *Filter {
	if b.over != nil {
		return b.over
	}
	return b.filter()
}

func (b *Builder) filter() *Filter {
	f := New(min(len(b.hashes), b.maxKeys), fpRate)
	for h := range b.hashes {
		f.addHash(h)
	}
	return f
}
