// Package fragment implements the WOS fragment log-file format (§5.4.4).
//
// A fragment is an append-only log file in Colossus. Its layout is:
//
//	Header:
//	  magic, version, streamlet id, fragment index, schema version,
//	  File Map — the committed sizes and record ranges of all previous
//	  fragments of the same streamlet not yet deleted (used for disaster
//	  recovery when the Stream Server is unreachable, §7.1),
//	  header CRC32C.
//	Blocks (repeated):
//	  DATA     — one append's rows, sealed by blockenc, stamped with a
//	             single server-assigned TrueTime timestamp; the payload
//	             is a column-major block whose one codec is in
//	             internal/wire (AppendBlock, DecodeBlock), which this
//	             package carries without reading;
//	  COMMIT   — acknowledges that the preceding append reached both
//	             replicas (combined with the next data append when the
//	             streamlet is active, §7.1);
//	  FLUSH    — a metadata write advancing a BUFFERED stream's committed
//	             row offset (§5.4.4);
//	  SENTINEL — poisons a zombie Stream Server's assumption that it is
//	             the sole writer of the file (§5.6).
//	Finalization suffix:
//	  a Bloom filter over the partitioning/clustering column values,
//	  then a fixed-length footer locating it.
//
// Readers parse the block sequence tolerantly: a torn or corrupt tail
// (the partial final write of a crashed server) terminates the scan at
// the last valid block, and the final data block is only considered
// committed if *anything* valid follows it (§7.1).
//
// This package is the one owner of what a log file's bytes mean. Path,
// Prefix and IndexFromPath write and parse its name; Scan applies the
// commit rule to one replica; and the extent functions in extent.go —
// ScanResult.End, Within, FileMapBound and Agreed — carry the rest of
// §7.1: a File Map entry caps a file, and the blocks both replicas hold
// are the ones the dual write acknowledged. The reader's tail decision,
// the SMS's reconciliation (§5.6) and the Stream Server's writer call
// them rather than computing block ends themselves.
package fragment

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vortex/internal/bin"
	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/truetime"
)

// Errors returned by parsers.
var (
	ErrCorruptHeader = errors.New("fragment: corrupt header")
	ErrCorruptFooter = errors.New("fragment: corrupt footer")
	ErrNotFinalized  = errors.New("fragment: not finalized")
)

const (
	headerMagic = "VXF1"
	// headerVersion 2: DATA block payloads are wire.AppendBlock's
	// column-major blocks. A version 1 file, whose payloads were rows, is
	// refused rather than misread.
	headerVersion = 2
	footerMagic   = "VXFF"
	blockMagic    = 0xB1
)

// BlockKind distinguishes the record types in a fragment.
type BlockKind byte

// Block kinds.
const (
	BlockData BlockKind = iota + 1
	BlockCommit
	BlockFlush
	BlockSentinel
)

// String returns the kind name.
func (k BlockKind) String() string {
	switch k {
	case BlockData:
		return "DATA"
	case BlockCommit:
		return "COMMIT"
	case BlockFlush:
		return "FLUSH"
	case BlockSentinel:
		return "SENTINEL"
	}
	return fmt.Sprintf("BlockKind(%d)", byte(k))
}

// FileMapEntry describes one previous fragment of the same streamlet.
type FileMapEntry struct {
	Index         int
	CommittedSize int64
	StartRow      int64
	RowCount      int64
	MinTS, MaxTS  truetime.Timestamp
}

// Header is the fragment file header.
type Header struct {
	StreamletID   string
	Index         int
	SchemaVersion int
	WriterEpoch   int64 // identifies the Stream Server incarnation that opened the file
	FileMap       []FileMapEntry
}

// EncodeHeader serializes h.
func EncodeHeader(h Header) []byte {
	out := []byte(headerMagic)
	out = append(out, headerVersion)
	out = binary.AppendUvarint(out, uint64(len(h.StreamletID)))
	out = append(out, h.StreamletID...)
	out = binary.AppendUvarint(out, uint64(h.Index))
	out = binary.AppendUvarint(out, uint64(h.SchemaVersion))
	out = binary.AppendVarint(out, h.WriterEpoch)
	out = binary.AppendUvarint(out, uint64(len(h.FileMap)))
	for _, e := range h.FileMap {
		out = binary.AppendUvarint(out, uint64(e.Index))
		out = binary.AppendVarint(out, e.CommittedSize)
		out = binary.AppendVarint(out, e.StartRow)
		out = binary.AppendVarint(out, e.RowCount)
		out = binary.AppendVarint(out, int64(e.MinTS))
		out = binary.AppendVarint(out, int64(e.MaxTS))
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], blockenc.Checksum(out))
	return append(out, crc[:]...)
}

// ParseHeader parses a header from the start of data, returning it and
// the number of bytes consumed.
func ParseHeader(data []byte) (Header, int, error) {
	var h Header
	if len(data) < 5 || string(data[:4]) != headerMagic {
		return h, 0, ErrCorruptHeader
	}
	if data[4] != headerVersion {
		return h, 0, fmt.Errorf("%w: version %d", ErrCorruptHeader, data[4])
	}
	r := bin.NewReader(data[5:])
	id := r.Block()
	h.Index = int(r.Uvarint())
	h.SchemaVersion = int(r.Uvarint())
	h.WriterEpoch = r.Varint()
	// A File Map entry is one uvarint and five varints: six bytes at least.
	nmap := r.Count(6)
	if r.Err() != nil || len(id) > 1<<16 || nmap > 1<<20 {
		return h, 0, ErrCorruptHeader
	}
	h.StreamletID = string(id)
	h.FileMap = make([]FileMapEntry, nmap)
	for i := range h.FileMap {
		e := &h.FileMap[i]
		e.Index = int(r.Uvarint())
		e.CommittedSize, e.StartRow, e.RowCount = r.Varint(), r.Varint(), r.Varint()
		e.MinTS, e.MaxTS = truetime.Timestamp(r.Varint()), truetime.Timestamp(r.Varint())
	}
	end := 5 + r.Pos()
	crc := r.Uint32()
	if r.Err() != nil {
		return h, 0, ErrCorruptHeader
	}
	if blockenc.Checksum(data[:end]) != crc {
		return h, 0, fmt.Errorf("%w: checksum", ErrCorruptHeader)
	}
	return h, end + 4, nil
}

// Block is one parsed fragment block.
type Block struct {
	Kind      BlockKind
	Timestamp truetime.Timestamp
	// StartRow is the streamlet row offset of the block's first row
	// (DATA); for FLUSH blocks it carries the flushed stream offset; for
	// SENTINEL blocks the poisoning writer's epoch.
	StartRow int64
	RowCount int64
	// Payload is the sealed row data (DATA) or empty.
	Payload []byte
	// Offset and Size locate the encoded block within the file.
	Offset int64
	Size   int64
}

// EncodeBlock serializes one block.
func EncodeBlock(b Block) []byte {
	out := []byte{blockMagic, byte(b.Kind)}
	out = binary.AppendVarint(out, int64(b.Timestamp))
	out = binary.AppendVarint(out, b.StartRow)
	out = binary.AppendVarint(out, b.RowCount)
	out = binary.AppendUvarint(out, uint64(len(b.Payload)))
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], blockenc.Checksum(b.Payload))
	out = append(out, crc[:]...)
	return append(out, b.Payload...)
}

// parseBlock parses one block at data[pos:]. It returns ok=false when the
// bytes do not form a complete valid block (torn tail).
func parseBlock(data []byte, pos int64) (Block, int64, bool) {
	r := bin.NewReader(data[pos:])
	magic, kind := r.Byte(), BlockKind(r.Byte())
	ts, start, rows := r.Varint(), r.Varint(), r.Varint()
	plen := r.Uvarint()
	wantCRC := r.Uint32()
	payload := r.Bytes(plen)
	if r.Err() != nil || magic != blockMagic || kind < BlockData || kind > BlockSentinel || plen > 1<<31 ||
		blockenc.Checksum(payload) != wantCRC {
		return Block{}, 0, false
	}
	next := pos + int64(r.Pos())
	return Block{
		Kind:      kind,
		Timestamp: truetime.Timestamp(ts),
		StartRow:  start,
		RowCount:  rows,
		Payload:   append([]byte(nil), payload...),
		Offset:    pos,
		Size:      next - pos,
	}, next, true
}

// ScanResult is the outcome of scanning a fragment's block sequence.
type ScanResult struct {
	Header Header
	Blocks []Block
	// CommittedSize is the file offset after the last block that is
	// known committed by the "anything follows it" rule. If the final
	// valid block is a DATA block with nothing after it, that block is
	// NOT included in CommittedSize/CommittedBlocks and TailBlock points
	// at it: the reader must reconcile (§7.1).
	CommittedSize   int64
	CommittedBlocks []Block
	// TailBlock is the final DATA block whose commit status is locally
	// undecidable, if any.
	TailBlock *Block
	// Footer is the parsed finalization footer, if present.
	Footer *Footer
	// Poisoned reports whether a SENTINEL block with a different writer
	// epoch than the header's was seen.
	Poisoned bool
	// dataStart is the file offset just past the header, where the
	// first block begins.
	dataStart int64
}

// Scan parses an entire fragment file image. It never fails on a torn
// tail — it stops at the last valid block. A corrupt header is an error.
func Scan(data []byte) (*ScanResult, error) {
	h, pos, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	res := &ScanResult{Header: h, dataStart: int64(pos)}

	// A finalized file ends with bloom+footer; try to parse the footer
	// first so we know where blocks end.
	blockEnd := int64(len(data))
	if f, err := ParseFooter(data); err == nil {
		res.Footer = f
		blockEnd = f.BloomOffset
	}

	p := int64(pos)
	for p < blockEnd {
		b, next, ok := parseBlock(data, p)
		if !ok {
			break
		}
		res.Blocks = append(res.Blocks, b)
		if b.Kind == BlockSentinel && b.StartRow != h.WriterEpoch {
			res.Poisoned = true
		}
		p = next
	}

	// Commit rule: every block with a valid successor is committed. The
	// final block is committed if it is a non-DATA block, or if the file
	// is finalized (footer present).
	n := len(res.Blocks)
	if n == 0 {
		res.CommittedSize = int64(pos)
		return res, nil
	}
	last := res.Blocks[n-1]
	if last.Kind == BlockData && res.Footer == nil {
		res.CommittedBlocks = res.Blocks[:n-1]
		res.CommittedSize = last.Offset
		res.TailBlock = &res.Blocks[n-1]
	} else {
		res.CommittedBlocks = res.Blocks
		res.CommittedSize = last.Offset + last.Size
	}
	return res, nil
}

// Footer is the fixed-length finalization footer.
type Footer struct {
	// BloomOffset is the file offset where the bloom filter begins.
	BloomOffset int64
	// CommittedSize is the committed data size (end of the block region).
	CommittedSize int64
	RowCount      int64
	MinTS, MaxTS  truetime.Timestamp
}

const footerLen = 4 + 8*5 + 4 // magic + 5 fixed fields + crc

// EncodeFinalization returns the bytes appended at finalization: the
// marshaled bloom filter followed by the footer.
func EncodeFinalization(f Footer, bloomBytes []byte) []byte {
	out := make([]byte, 0, len(bloomBytes)+footerLen)
	out = append(out, bloomBytes...)
	ftr := make([]byte, footerLen)
	copy(ftr, footerMagic)
	binary.LittleEndian.PutUint64(ftr[4:], uint64(f.BloomOffset))
	binary.LittleEndian.PutUint64(ftr[12:], uint64(f.CommittedSize))
	binary.LittleEndian.PutUint64(ftr[20:], uint64(f.RowCount))
	binary.LittleEndian.PutUint64(ftr[28:], uint64(f.MinTS))
	binary.LittleEndian.PutUint64(ftr[36:], uint64(f.MaxTS))
	binary.LittleEndian.PutUint32(ftr[44:], blockenc.Checksum(ftr[:44]))
	return append(out, ftr...)
}

// ParseFooter parses the finalization footer from the end of a file
// image. It returns ErrNotFinalized if no valid footer is present.
func ParseFooter(data []byte) (*Footer, error) {
	if len(data) < footerLen {
		return nil, ErrNotFinalized
	}
	ftr := data[len(data)-footerLen:]
	if string(ftr[:4]) != footerMagic {
		return nil, ErrNotFinalized
	}
	if binary.LittleEndian.Uint32(ftr[44:]) != blockenc.Checksum(ftr[:44]) {
		return nil, fmt.Errorf("%w: checksum", ErrCorruptFooter)
	}
	f := &Footer{
		BloomOffset:   int64(binary.LittleEndian.Uint64(ftr[4:])),
		CommittedSize: int64(binary.LittleEndian.Uint64(ftr[12:])),
		RowCount:      int64(binary.LittleEndian.Uint64(ftr[20:])),
		MinTS:         truetime.Timestamp(binary.LittleEndian.Uint64(ftr[28:])),
		MaxTS:         truetime.Timestamp(binary.LittleEndian.Uint64(ftr[36:])),
	}
	if f.BloomOffset < 0 || f.BloomOffset > int64(len(data)-footerLen) {
		return nil, ErrCorruptFooter
	}
	return f, nil
}

// Bloom extracts the finalization bloom filter from a finalized file.
func Bloom(data []byte, f *Footer) (*bloom.Filter, error) {
	if f == nil {
		return nil, ErrNotFinalized
	}
	end := int64(len(data)) - footerLen
	if f.BloomOffset > end {
		return nil, ErrCorruptFooter
	}
	return bloom.Unmarshal(data[f.BloomOffset:end])
}
