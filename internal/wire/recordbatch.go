// Record-batch wire format: the self-describing columnar frame that
// read-session shards stream to parallel consumers. A frame is a
// header (magic VXRB, version, row count, column count), then per column
// its name followed by `encoding | length | payload` — the column codec's
// bytes (column.go), the same a ROS value page holds — and a CRC32C over
// everything before it, end-to-end like append payloads (§5.4.5). This
// file owns the framing and nothing below it: EncodeRecordBatch and
// EncodeVectors write columns through AppendColumn, DecodeRecordBatch
// reads them through DecodeColumn.
//
// EncodeRecordBatch picks each column's encoding deterministically from
// its content (chooseVector), so encode∘decode is a fixpoint — the
// property the fuzz target checks on every accepted input.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vortex/internal/bin"
	"vortex/internal/blockenc"
	"vortex/internal/schema"
)

// ErrBatchCorrupt is returned for any malformed record-batch frame.
var ErrBatchCorrupt = errors.New("wire: corrupt record batch")

// Column encodings.
const (
	BatchEncPlain = byte(0)
	BatchEncDict  = byte(1)
	BatchEncRLE   = byte(2)
)

const (
	batchMagic   = uint32(0x56585242) // "VXRB"
	batchVersion = byte(1)

	// Hostile-input guards: bound allocations before any payload bytes
	// are trusted (the rowenc maxDecodeElems pattern). RLE amplifies a
	// few payload bytes into many values, so the row bound also caps
	// what a hostile frame can make the decoder materialize.
	maxBatchRows   = 1 << 16
	maxBatchCols   = 1 << 8
	maxBatchValues = 1 << 20
)

// BatchColumn is one named, fully materialized column of a batch.
type BatchColumn struct {
	Name   string
	Values []schema.Value
}

// RecordBatch is the decoded form of one frame. Every column holds
// exactly NumRows values.
type RecordBatch struct {
	NumRows int
	Cols    []BatchColumn
}

func appendBatchHeader(dst []byte, rows, cols int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, batchMagic)
	dst = append(dst, batchVersion)
	dst = binary.AppendUvarint(dst, uint64(rows))
	return binary.AppendUvarint(dst, uint64(cols))
}

// appendBatchColumn writes one named column: the name, then the
// selected rows of v through the shared column writer.
func appendBatchColumn(dst []byte, v *Vector, sel Selection) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(v.Name)))
	dst = append(dst, v.Name...)
	return AppendColumn(dst, v, sel)
}

func appendBatchCRC(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, blockenc.Checksum(dst))
}

// EncodeRecordBatch serializes b into a CRC-framed columnar frame,
// choosing each column's encoding from its content and writing it
// through the same column writer as EncodeVectors. It panics if a
// column's length disagrees with NumRows (a programming error, not a
// wire condition).
func EncodeRecordBatch(b *RecordBatch) []byte {
	dst := appendBatchHeader(nil, b.NumRows, len(b.Cols))
	for _, col := range b.Cols {
		if len(col.Values) != b.NumRows {
			panic(fmt.Sprintf("wire: column %q has %d values, batch has %d rows", col.Name, len(col.Values), b.NumRows))
		}
		v := chooseVector(col.Name, col.Values)
		dst = appendBatchColumn(dst, &v, nil)
	}
	return appendBatchCRC(dst)
}

// DecodeRecordBatch decodes one frame from the front of data, returning
// the batch and the number of bytes consumed: each column through
// DecodeColumn, then expanded to values in one pass. A typed column's
// strings share the one string it decoded them into, so no value costs
// an allocation of its own. Malformed frames — truncation,
// bad magic, CRC mismatch, over-long runs, out-of-range dictionary
// indexes — are rejected with ErrBatchCorrupt.
func DecodeRecordBatch(data []byte) (*RecordBatch, int, error) {
	r := bin.NewReader(data)
	magic, version := r.Uint32(), r.Byte()
	rows, nCols := r.Uvarint(), r.Uvarint()
	switch {
	case r.Err() != nil:
		return nil, 0, fmt.Errorf("%w: header: %v", ErrBatchCorrupt, r.Err())
	case magic != batchMagic || version != batchVersion:
		return nil, 0, fmt.Errorf("%w: bad magic/version", ErrBatchCorrupt)
	case rows > maxBatchRows:
		return nil, 0, fmt.Errorf("%w: %d rows", ErrBatchCorrupt, rows)
	case nCols > maxBatchCols:
		return nil, 0, fmt.Errorf("%w: %d columns", ErrBatchCorrupt, nCols)
	case rows*nCols > maxBatchValues:
		return nil, 0, fmt.Errorf("%w: %d values", ErrBatchCorrupt, rows*nCols)
	}
	b := &RecordBatch{NumRows: int(rows)}
	for i := uint64(0); i < nCols; i++ {
		name, enc, payload := r.Block(), r.Byte(), r.Block()
		if r.Err() != nil {
			return nil, 0, fmt.Errorf("%w: column %d: %v", ErrBatchCorrupt, i, r.Err())
		}
		v, err := DecodeColumn(string(name), enc, payload, int(rows))
		if err != nil {
			return nil, 0, err
		}
		b.Cols = append(b.Cols, BatchColumn{Name: v.Name, Values: v.Gather(nil)})
	}
	end := r.Pos()
	if crc := r.Uint32(); r.Err() != nil || crc != blockenc.Checksum(data[:end]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrBatchCorrupt)
	}
	return b, r.Pos(), nil
}
