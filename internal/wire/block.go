// WOS data blocks: the payload of an append, which the Stream Server
// seals into a WOS fragment's DATA block as it came (§5.4), and the only
// code that writes or reads it. It is column-major, its columns the
// column codec's PLAIN payloads framed as AppendColumn frames them:
//
//	uvarint rows
//	rows uvarints  each row's header: arity<<2 | change type
//	uvarint width
//	width columns  field 0, 1, …: BatchEncPlain | uvarint length | one value per row
//
// A row's arity is the number of values it was written with; width is
// the widest row's. A row shorter than a field holds NULL in its column,
// so a row written before a field was added reads back as short as it
// was appended. A block names no columns: its reader names them by the
// table's schema.
//
// The client encodes an append with AppendBlock. The Stream Server
// checks it with DecodeBlock, reading every column; the reader calls the
// same DecodeBlock, reading the columns a scan reads and stepping over
// the others by their framed length, and appending every block's change
// types and arities to one pair of slices per file.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"vortex/internal/bin"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// ErrBlockCorrupt is returned for any malformed WOS block payload.
var ErrBlockCorrupt = errors.New("wire: corrupt WOS block")

// AppendBlock appends the block payload of rows to dst.
func AppendBlock(dst []byte, rows []schema.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	width := 0
	for _, r := range rows {
		dst = binary.AppendUvarint(dst, uint64(len(r.Values))<<2|uint64(r.Change))
		width = max(width, len(r.Values))
	}
	dst = binary.AppendUvarint(dst, uint64(width))
	for f := range width {
		start := len(dst)
		for _, r := range rows {
			v := schema.Null()
			if f < len(r.Values) {
				v = r.Values[f]
			}
			dst = rowenc.AppendValue(dst, v)
		}
		// The column's length is known once it is written: its frame
		// goes in front of it, and the values move up, not the block.
		var frame [1 + binary.MaxVarintLen64]byte
		dst = slices.Insert(dst, start, binary.AppendUvarint(append(frame[:0], BatchEncPlain), uint64(len(dst)-start))...)
	}
	return dst
}

// DecodeBlock reads a block payload. Each column f is read into the
// builder col(f, rows) returns, one with room for the block's rows more,
// or stepped over by its framed length where col returns nil. It
// appends each row's change type to changes and its arity to arity, and
// returns both: a caller decoding many blocks lends it the same slices
// for each. It refuses a count the payload's bytes cannot hold before
// anything is sized by it, a change type out of range, a width other
// than the widest row's arity, an encoding other than PLAIN, a column
// of fewer bytes than rows, a value where its row is too short for the
// field, and trailing bytes. A column stepped over is not read: the
// Stream Server reads every column of an append, so the reader may step
// over any.
func DecodeBlock(payload []byte, changes []byte, arity []int32, col func(f, rows int) *ColumnBuilder) ([]byte, []int32, error) {
	r := bin.NewReader(payload)
	// Every row spends at least a byte, its header; every column two,
	// its encoding and its length.
	rows, narrow, widest := r.Count(1), math.MaxInt32, 0
	first := len(arity) // the block's first row
	changes, arity = grow(changes, rows), grow(arity, rows)
	for i := 0; i < rows && r.Err() == nil; i++ {
		h := r.Uvarint()
		if h&3 > uint64(schema.ChangeDelete) || h>>2 > math.MaxInt32 {
			r.Fail(fmt.Errorf("row %d: change type %d, arity %d", i, h&3, h>>2))
		}
		a := int32(h >> 2)
		changes, arity = append(changes, byte(h&3)), append(arity, a)
		narrow, widest = min(narrow, int(a)), max(widest, int(a))
	}
	width := r.Count(2)
	if width != widest {
		r.Fail(fmt.Errorf("%d columns, widest row %d", width, widest))
	}
	for f := 0; f < width && r.Err() == nil; f++ {
		enc, c := r.Byte(), bin.NewReader(r.Block())
		if enc != BatchEncPlain || c.Len() < rows {
			r.Fail(fmt.Errorf("column %d: encoding 0x%02x, %d rows in %d bytes", f, enc, rows, c.Len()))
			break
		}
		switch dst := col(f, rows); {
		case dst == nil:
			continue
		case f < narrow: // every row is long enough for the field
			dst.Read(c, rows)
		default:
			for i := 0; i < rows && c.Err() == nil; i++ {
				if int(arity[first+i]) > f {
					dst.Read(c, 1)
				} else if tag := c.Byte(); tag == rowenc.TagNull {
					dst.AppendNulls(1)
				} else {
					c.Fail(fmt.Errorf("row %d of arity %d holds tag 0x%02x", i, arity[first+i], tag))
				}
			}
		}
		if c.Len() != 0 {
			c.Fail(fmt.Errorf("%d trailing bytes", c.Len()))
		}
		if c.Err() != nil {
			r.Fail(fmt.Errorf("column %d: %v", f, c.Err()))
		}
	}
	if r.Len() != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if err := r.Err(); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBlockCorrupt, err)
	}
	return changes, arity, nil
}

// grow returns s with room for n more elements. Unlike slices.Grow, it
// allocates once whatever the build: under -race, append of a make
// allocates the made slice as well, which would double what a hostile
// count can make the decoder allocate.
func grow[E any](s []E, n int) []E {
	if n <= cap(s)-len(s) {
		return s
	}
	return append(make([]E, 0, len(s)+n), s...)
}
