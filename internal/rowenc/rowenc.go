// Package rowenc implements the binary row serialization used on the
// wire and inside WOS fragments. The paper's clients serialize rows "to
// a binary format" (protocol buffers or Avro, §4.2.2) before appending;
// this package plays that role with a compact, self-describing,
// proto-style encoding (varint tags, zig-zag integers, length-delimited
// strings) so the Stream Server can store and relay rows without knowing
// the table schema, while readers decode and validate against it.
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
	case schema.KindInt64, schema.KindTimestamp, schema.KindDate, schema.KindNumeric, schema.KindBool:
		return AppendInt(dst, k, v.AsInt64())
	case schema.KindFloat64:
		return AppendFloat(dst, v.AsFloat64())
	case schema.KindString, schema.KindJSON:
		return AppendString(dst, k, v.AsString())
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

// FloatLen is the length of every FLOAT64 encoding.
const FloatLen = 9

// AppendInt appends the encoding of the value of integer kind k —
// INT64, TIMESTAMP, DATE or NUMERIC, a zig-zag varint after the tag, or
// BOOL, one byte 0 or 1 — whose payload is n. AppendInt, AppendFloat
// and AppendString write the scalars for AppendValue and for a column
// that holds them unboxed; IntLen and StringLen size them.
func AppendInt(dst []byte, k schema.Kind, n int64) []byte {
	dst = append(dst, byte(k))
	if k == schema.KindBool {
		if n != 0 {
			n = 1
		}
		return append(dst, byte(n))
	}
	return binary.AppendVarint(dst, n)
}

// AppendFloat appends the encoding of a FLOAT64: its bits, little-endian.
func AppendFloat(dst []byte, f float64) []byte {
	dst = append(dst, byte(schema.KindFloat64))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

// AppendString appends the encoding of a STRING or JSON value (k): a
// uvarint length and the bytes.
func AppendString(dst []byte, k schema.Kind, s string) []byte {
	dst = append(dst, byte(k))
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// IntLen is the length of AppendInt's encoding of k and n.
func IntLen(k schema.Kind, n int64) int {
	if k == schema.KindBool {
		return 2
	}
	return 1 + uvarintLen(uint64(n<<1)^uint64(n>>63))
}

// StringLen is the length of AppendString's encoding of s.
func StringLen(s string) int { return 1 + uvarintLen(uint64(len(s))) + len(s) }

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
	change, n := ReadRowHeader(r)
	values := make([]schema.Value, n)
	for i := range values {
		values[i] = ReadValue(r)
	}
	return schema.Row{Values: values, Change: change}
}

// ReadRowHeader reads what precedes a row's values: its change type and
// its value count, under the bounds DecodeRows applies. A failure is
// left in r. A decoder that reads the values some other way than
// ReadValue into a row — straight into columns — reads its rows' headers
// here.
func ReadRowHeader(r *bin.Reader) (schema.ChangeType, int) {
	change := r.Uvarint()
	if change > uint64(schema.ChangeDelete) {
		r.Fail(fmt.Errorf("change type %d", change))
	}
	return schema.ChangeType(change), readCount(r, "values")
}

// readCount reads the element count of a row, list or struct: every
// element spends at least its tag byte.
func readCount(r *bin.Reader, what string) int {
	n := r.Count(1)
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
		elems := make([]schema.Value, readCount(r, "list elements"))
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
		fields := make([]schema.Value, readCount(r, "struct fields"))
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

// SkipValue reads past one value in the single-value codec without
// building it, allocating nothing unless it fails: a reader of a
// projection steps over a field it does not need. It refuses exactly
// what ReadValue refuses, after the same bytes; the failure is left in r.
func SkipValue(r *bin.Reader) { skipValue(r, 0) }

func skipValue(r *bin.Reader, depth int) {
	if depth > maxValueDepth {
		r.Fail(errors.New("nesting too deep"))
		return
	}
	switch tag := r.Byte(); tag {
	case flagNull:
	case flagList:
		for n := readCount(r, "list elements"); n > 0 && r.Err() == nil; n-- {
			skipValue(r, depth+1)
		}
	case byte(schema.KindStruct):
		for n := readCount(r, "struct fields"); n > 0 && r.Err() == nil; n-- {
			skipValue(r, depth+1)
		}
	case byte(schema.KindInt64), byte(schema.KindTimestamp), byte(schema.KindDate), byte(schema.KindNumeric):
		r.Uvarint()
	case byte(schema.KindFloat64):
		r.Bytes(8)
	case byte(schema.KindBool):
		if b := r.Byte(); b > 1 {
			r.Fail(fmt.Errorf("bool byte %d", b))
		}
	case byte(schema.KindString), byte(schema.KindJSON), byte(schema.KindBytes):
		r.Block()
	default:
		if r.Err() == nil { // not the zero a failed read returns
			r.Fail(fmt.Errorf("tag 0x%02x", tag))
		}
	}
}

// AppendValue appends the encoding of a single value to dst. The ROS
// format reuses this codec for column statistics and PLAIN value pages.
func AppendValue(dst []byte, v schema.Value) []byte { return appendValue(dst, v) }

// DecodeValue decodes a single value from the front of data, returning
// the value and the number of bytes consumed.
func DecodeValue(data []byte) (schema.Value, int, error) {
	r := bin.NewReader(data)
	v := ReadValue(r)
	if err := r.Err(); err != nil {
		return schema.Value{}, 0, corrupt(err)
	}
	return v, r.Pos(), nil
}

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
// This is the payload format of an AppendStream request's RowSet and of
// WOS data blocks.
func EncodeRows(rows []schema.Row) []byte {
	dst := binary.AppendUvarint(nil, uint64(len(rows)))
	for _, r := range rows {
		dst = AppendRow(dst, r)
	}
	return dst
}

// DecodeRows decodes a batch encoded by EncodeRows. The input must be
// exactly one batch: trailing bytes are an error (WOS blocks are exact).
func DecodeRows(data []byte) ([]schema.Row, error) {
	r := bin.NewReader(data)
	rows := make([]schema.Row, ReadRowCount(r))
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

// ReadRowCount reads the row count that starts an EncodeRows batch:
// every row spends at least two bytes, its change type and its value
// count. A failure is left in r.
func ReadRowCount(r *bin.Reader) int {
	n := r.Count(2)
	if n > maxDecodeElems {
		r.Fail(fmt.Errorf("%d rows", n))
		return 0
	}
	return n
}

// RowCount returns the number of rows in an EncodeRows payload without
// decoding them.
func RowCount(data []byte) (int, error) {
	r := bin.NewReader(data)
	n := ReadRowCount(r)
	if err := r.Err(); err != nil {
		return 0, corrupt(err)
	}
	return n, nil
}
