// Package blockenc implements the data-protection envelope every WOS
// block passes through (§5.4.5): Snappy compression, AES-CTR encryption
// with either the system key or a customer-supplied key, and end-to-end
// CRC32C checksums. The paper's guards are reproduced exactly:
//
//   - the CRC travels with the data from client to Stream Server to
//     Colossus, so corruption in memory or in flight fails the write;
//   - after compressing, the Stream Server decompresses its own output
//     and verifies the CRC matches the original bytes, catching
//     corruption introduced *by* compression;
//   - data is encrypted before it leaves the Stream Server, so it is in
//     encrypted form over RPC, at rest and while being read back.
package blockenc

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"vortex/internal/snappy"
)

// castagnoli is the CRC32C polynomial table (the checksum Colossus and
// the RPC layer verify).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32C of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ErrChecksum is returned when a CRC32C verification fails anywhere in
// the envelope.
var ErrChecksum = errors.New("blockenc: checksum mismatch")

// ErrCorrupt is returned for structurally invalid sealed blocks.
var ErrCorrupt = errors.New("blockenc: corrupt sealed block")

// KeyID identifies which encryption key sealed a block.
type KeyID uint8

// Key identifiers. SystemKey is the default; CustomerKey models
// customer-supplied encryption keys (CMEK).
const (
	SystemKey KeyID = iota
	CustomerKey
)

// Keyring holds the AES-256 keys available to a Stream Server, each as
// its expanded cipher: SetKey builds the key schedule once, not every
// Seal and Open.
type Keyring struct {
	keys map[KeyID]cipher.Block
}

// NewKeyring returns a keyring with a generated system key.
func NewKeyring() *Keyring {
	k := &Keyring{keys: make(map[KeyID]cipher.Block)}
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		panic(fmt.Sprintf("blockenc: generating system key: %v", err))
	}
	if err := k.SetKey(SystemKey, key); err != nil {
		panic(err) // a 32-byte key always makes an AES cipher
	}
	return k
}

// SetKey installs (or replaces) the key for id. The key must be 32 bytes.
func (k *Keyring) SetKey(id KeyID, key []byte) error {
	if len(key) != 32 {
		return fmt.Errorf("blockenc: key for id %d must be 32 bytes, got %d", id, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return fmt.Errorf("blockenc: cipher: %w", err)
	}
	k.keys[id] = block
	return nil
}

// block returns the cipher of the key for id. A cipher.Block from
// crypto/aes is safe for concurrent use.
func (k *Keyring) block(id KeyID) (cipher.Block, error) {
	block, ok := k.keys[id]
	if !ok {
		return nil, fmt.Errorf("blockenc: no key with id %d", id)
	}
	return block, nil
}

// Sealed block layout:
//
//	[0:4)   magic "VXB1"
//	[4]     key id
//	[5:21)  AES-CTR IV
//	[21:25) plaintext length (uint32 LE)
//	[25:29) plaintext CRC32C
//	[29:33) ciphertext CRC32C (integrity of the stored bytes themselves)
//	[33:)   ciphertext = AES-CTR(snappy(plaintext))
const (
	magic      = "VXB1"
	headerSize = 33
)

// Sealer seals and opens blocks with a keyring.
type Sealer struct {
	keyring *Keyring
}

// NewSealer returns a Sealer over keyring.
func NewSealer(keyring *Keyring) *Sealer { return &Sealer{keyring: keyring} }

// Seal applies the full envelope to plaintext using the key identified by
// id. expectedCRC is the end-to-end checksum that accompanied the data
// from the client; Seal first verifies it, then compresses, then performs
// the paper's decompress-and-verify guard, then encrypts.
func (s *Sealer) Seal(plaintext []byte, expectedCRC uint32, id KeyID) ([]byte, error) {
	if got := Checksum(plaintext); got != expectedCRC {
		return nil, fmt.Errorf("%w: client CRC %08x, computed %08x", ErrChecksum, expectedCRC, got)
	}
	block, err := s.keyring.block(id)
	if err != nil {
		return nil, err
	}

	compressed := snappy.Encode(plaintext)
	// Decompress-and-verify guard (§5.4.5): prove the compressor did not
	// corrupt the data before the original bytes are dropped.
	verify, err := snappy.Decode(nil, compressed)
	if err != nil {
		return nil, fmt.Errorf("blockenc: verifying compression: %w", err)
	}
	if Checksum(verify) != expectedCRC {
		return nil, fmt.Errorf("%w: compression corrupted data", ErrChecksum)
	}

	out := make([]byte, headerSize+len(compressed))
	copy(out[0:4], magic)
	out[4] = byte(id)
	iv := out[5:21]
	if _, err := rand.Read(iv); err != nil {
		return nil, fmt.Errorf("blockenc: generating IV: %w", err)
	}
	binary.LittleEndian.PutUint32(out[21:25], uint32(len(plaintext)))
	binary.LittleEndian.PutUint32(out[25:29], expectedCRC)
	cipher.NewCTR(block, iv).XORKeyStream(out[headerSize:], compressed)
	binary.LittleEndian.PutUint32(out[29:33], Checksum(out[headerSize:]))
	return out, nil
}

// PlainLen returns the plaintext length a sealed block's header
// records, never more than the block's bytes could open to: what Open
// returns if it opens the block. A caller that sizes buffers before
// opening sizes them by it.
func PlainLen(sealed []byte) int {
	if len(sealed) < headerSize {
		return 0
	}
	return min(int(binary.LittleEndian.Uint32(sealed[21:25])), snappy.MaxDecodedLen(len(sealed)-headerSize))
}

// Open reverses Seal: verifies the stored-byte CRC, decrypts,
// decompresses and verifies the end-to-end plaintext CRC. A caller that
// opens block after block lends one buffer, as Open(sealed, buf...),
// and passes each result back the same way: the plaintext is written
// over its front, the decrypted block behind it, whenever its capacity
// holds both. A caller with no buffer passes none. A header length no
// block of this size could decode to is refused before anything is
// sized by it.
func (s *Sealer) Open(sealed []byte, dst ...byte) ([]byte, error) {
	if len(sealed) < headerSize || string(sealed[0:4]) != magic {
		return nil, ErrCorrupt
	}
	block, err := s.keyring.block(KeyID(sealed[4]))
	if err != nil {
		return nil, err
	}
	iv := sealed[5:21]
	plainLen := binary.LittleEndian.Uint32(sealed[21:25])
	plainCRC := binary.LittleEndian.Uint32(sealed[25:29])
	cipherCRC := binary.LittleEndian.Uint32(sealed[29:33])
	ciphertext := sealed[headerSize:]
	if Checksum(ciphertext) != cipherCRC {
		return nil, fmt.Errorf("%w: stored bytes corrupted", ErrChecksum)
	}
	n := PlainLen(sealed)
	if uint32(n) != plainLen {
		return nil, fmt.Errorf("%w: length %d from %d stored bytes", ErrCorrupt, plainLen, len(ciphertext))
	}
	buf := slices.Grow(dst[:0], n+len(ciphertext))[:n+len(ciphertext)]
	compressed := buf[n:]
	cipher.NewCTR(block, iv).XORKeyStream(compressed, ciphertext)
	plaintext, err := snappy.Decode(buf[:0:n], compressed)
	if err != nil {
		return nil, fmt.Errorf("blockenc: decompress: %w", err)
	}
	if uint32(len(plaintext)) != plainLen {
		return nil, fmt.Errorf("%w: length %d, header says %d", ErrCorrupt, len(plaintext), plainLen)
	}
	if Checksum(plaintext) != plainCRC {
		return nil, fmt.Errorf("%w: plaintext corrupted", ErrChecksum)
	}
	// The plaintext is buf[:n]; handed out with all of buf's capacity,
	// it can be lent back for a next block the size of this one's
	// plaintext and decrypted bytes together.
	return buf[:n], nil
}
