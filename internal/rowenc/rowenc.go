// Package rowenc implements the single-value codec — a compact,
// self-describing, proto-style encoding (varint tags, zig-zag integers,
// length-delimited strings) — and a row codec over it. Every stored
// value goes through the value codec: the column codec's PLAIN, DICT and
// RLE payloads (internal/wire), which a WOS block, a ROS value page and
// a record-batch column hold, and ROS column statistics and cluster-key
// bounds. The row codec (AppendRow, EncodeRows, DecodeRows) serves what
// is kept a row at a time: materialized-view state and the append
// ledger's row hashes. A WOS block is column-major; its one codec is
// wire.AppendBlock and wire.DecodeBlock.
package rowenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"vortex/internal/bin"
	"vortex/internal/schema"
)

// Wire-format value tags. The low nibble carries the scalar kind; flags
// mark NULL and repeated values.
const (
	flagNull = 0x10
	flagList = 0x20
)

// ErrCorrupt is returned for any malformed input.
var ErrCorrupt = errors.New("rowenc: corrupt row data")

// maxDecodeElems caps per-collection element counts as a hostile-input
// guard; it is far above anything the engine encodes.
const maxDecodeElems = 1 << 24

// AppendRow appends the encoding of r to dst and returns the result.
func AppendRow(dst []byte, r schema.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(r.Change))
	dst = binary.AppendUvarint(dst, uint64(len(r.Values)))
	for _, v := range r.Values {
		dst = appendValue(dst, v)
	}
	return dst
}

func appendValue(dst []byte, v schema.Value) []byte {
	if v.IsNull() {
		return append(dst, flagNull)
	}
	if v.IsList() {
		dst = append(dst, flagList)
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendValue(dst, v.Index(i))
		}
		return dst
	}
	switch k := v.Kind(); k {
	case schema.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(dst, byte(k), b)
	case schema.KindInt64, schema.KindTimestamp, schema.KindDate, schema.KindNumeric:
		return binary.AppendVarint(append(dst, byte(k)), v.AsInt64())
	case schema.KindFloat64:
		return binary.LittleEndian.AppendUint64(append(dst, byte(k)), math.Float64bits(v.AsFloat64()))
	case schema.KindString, schema.KindJSON:
		s := v.AsString()
		dst = binary.AppendUvarint(append(dst, byte(k)), uint64(len(s)))
		return append(dst, s...)
	case schema.KindBytes:
		dst = append(dst, byte(k))
		b := v.AsBytes()
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	case schema.KindStruct:
		dst = append(dst, byte(k))
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendValue(dst, v.FieldValue(i))
		}
	default:
		panic(fmt.Sprintf("rowenc: cannot encode kind %v", k))
	}
	return dst
}

// TagNull is the whole encoding of a NULL. Every other scalar's
// encoding starts with its kind as one byte.
const TagNull = flagNull

// ValueLen is the length of AppendValue's encoding of v, for a caller
// that sizes a buffer before it writes values into it.
func ValueLen(v schema.Value) int {
	if v.IsNull() {
		return 1
	}
	if v.IsList() {
		n := 1 + uvarintLen(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			n += ValueLen(v.Index(i))
		}
		return n
	}
	switch k := v.Kind(); k {
	case schema.KindBool:
		return 2
	case schema.KindInt64, schema.KindTimestamp, schema.KindDate, schema.KindNumeric:
		n := v.AsInt64()
		return 1 + uvarintLen(uint64(n<<1)^uint64(n>>63))
	case schema.KindFloat64:
		return 9
	case schema.KindString, schema.KindJSON:
		n := len(v.AsString())
		return 1 + uvarintLen(uint64(n)) + n
	case schema.KindBytes:
		n := len(v.AsBytes())
		return 1 + uvarintLen(uint64(n)) + n
	case schema.KindStruct:
		n := 1 + uvarintLen(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			n += ValueLen(v.FieldValue(i))
		}
		return n
	default:
		panic(fmt.Sprintf("rowenc: cannot encode kind %v", k))
	}
}

func uvarintLen(u uint64) int { return (bits.Len64(u|1) + 6) / 7 }

// DecodeRow decodes one row from the front of data, returning the row and
// the number of bytes consumed.
func DecodeRow(data []byte) (schema.Row, int, error) {
	r := bin.NewReader(data)
	row := readRow(r)
	if err := r.Err(); err != nil {
		return schema.Row{}, 0, corrupt(err)
	}
	return row, r.Pos(), nil
}

// corrupt wraps a reader's failure in ErrCorrupt.
func corrupt(err error) error { return fmt.Errorf("%w: %v", ErrCorrupt, err) }

// readRow reads one row; a failure is left in r.
func readRow(r *bin.Reader) schema.Row {
	change := r.Uvarint()
	if change > uint64(schema.ChangeDelete) {
		r.Fail(fmt.Errorf("change type %d", change))
	}
	values := make([]schema.Value, readCount(r, 1, "values"))
	for i := range values {
		values[i] = ReadValue(r)
	}
	return schema.Row{Values: values, Change: schema.ChangeType(change)}
}

// readCount reads the element count of a batch, row, list or struct,
// each element of which spends at least minBytes.
func readCount(r *bin.Reader, minBytes int, what string) int {
	n := r.Count(minBytes)
	if n > maxDecodeElems {
		r.Fail(fmt.Errorf("%d %s", n, what))
		return 0
	}
	return n
}

const maxValueDepth = 32

// ReadValue reads one value in the single-value codec; a failure is left
// in r. The ROS format and the column codec read their values through it.
func ReadValue(r *bin.Reader) schema.Value { return readValue(r, 0) }

func readValue(r *bin.Reader, depth int) schema.Value {
	if depth > maxValueDepth {
		r.Fail(errors.New("nesting too deep"))
		return schema.Value{}
	}
	switch tag := r.Byte(); tag {
	case flagNull:
		return schema.Null()
	case flagList:
		elems := make([]schema.Value, readCount(r, 1, "list elements"))
		for i := range elems {
			elems[i] = readValue(r, depth+1)
		}
		return schema.List(elems...)
	case byte(schema.KindInt64):
		return schema.Int64(r.Varint())
	case byte(schema.KindTimestamp):
		return schema.TimestampNanos(r.Varint())
	case byte(schema.KindDate):
		return schema.DateDays(r.Varint())
	case byte(schema.KindNumeric):
		return schema.Numeric(r.Varint())
	case byte(schema.KindFloat64):
		return schema.Float64(math.Float64frombits(r.Uint64()))
	case byte(schema.KindBool):
		b := r.Byte()
		if b > 1 {
			r.Fail(fmt.Errorf("bool byte %d", b))
		}
		return schema.Bool(b == 1)
	case byte(schema.KindString):
		return schema.String(string(r.Block()))
	case byte(schema.KindJSON):
		return schema.RawJSON(string(r.Block()))
	case byte(schema.KindBytes):
		return schema.Bytes(r.Block())
	case byte(schema.KindStruct):
		fields := make([]schema.Value, readCount(r, 1, "struct fields"))
		for i := range fields {
			fields[i] = readValue(r, depth+1)
		}
		return schema.Struct(fields...)
	default:
		if r.Err() == nil { // not the zero a failed read returns
			r.Fail(fmt.Errorf("tag 0x%02x", tag))
		}
		return schema.Value{}
	}
}

// AppendValue appends the encoding of a single value to dst. The ROS
// format reuses this codec for column statistics and PLAIN value pages.
func AppendValue(dst []byte, v schema.Value) []byte { return appendValue(dst, v) }

// EncodeValues concatenates the encodings of vs (cluster-key bounds in
// fragment metadata use this form).
func EncodeValues(vs []schema.Value) []byte {
	var out []byte
	for _, v := range vs {
		out = AppendValue(out, v)
	}
	return out
}

// DecodeValues decodes a concatenation produced by EncodeValues.
func DecodeValues(data []byte) ([]schema.Value, error) {
	var out []schema.Value
	r := bin.NewReader(data)
	for r.Len() > 0 {
		out = append(out, ReadValue(r))
	}
	if err := r.Err(); err != nil {
		return nil, corrupt(err)
	}
	return out, nil
}

// Stamped is a row paired with its storage sequence number: a total
// order over a table's committed rows (derived from the TrueTime block
// timestamp and the row's position) used to resolve UPSERT/DELETE
// precedence when reading (§4.2.6) and preserved by WOS→ROS conversion.
type Stamped struct {
	Row schema.Row
	Seq int64
}

// EncodeRows encodes a batch of rows: a count followed by each row.
func EncodeRows(rows []schema.Row) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, r := range rows {
		dst = AppendRow(dst, r)
	}
	return dst
}

// DecodeRows decodes a batch encoded by EncodeRows. The input must be
// exactly one batch: trailing bytes are an error.
func DecodeRows(data []byte) ([]schema.Row, error) {
	r := bin.NewReader(data)
	// Every row spends at least two bytes: its change type and its
	// value count.
	rows := make([]schema.Row, readCount(r, 2, "rows"))
	for i := range rows {
		rows[i] = readRow(r)
	}
	if err := r.Err(); err != nil {
		return nil, corrupt(err)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return rows, nil
}
