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
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case schema.KindInt64, schema.KindTimestamp, schema.KindDate, schema.KindNumeric:
		dst = binary.AppendVarint(dst, v.AsInt64())
	case schema.KindFloat64:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v.AsFloat64()))
		dst = append(dst, buf[:]...)
	case schema.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		dst = append(dst, b)
	case schema.KindString, schema.KindJSON:
		s := v.AsString()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	case schema.KindBytes:
		b := v.AsBytes()
		dst = binary.AppendUvarint(dst, uint64(len(b)))
		dst = append(dst, b...)
	case schema.KindStruct:
		dst = binary.AppendUvarint(dst, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			dst = appendValue(dst, v.FieldValue(i))
		}
	default:
		panic(fmt.Sprintf("rowenc: cannot encode kind %v", k))
	}
	return dst
}

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
	values := make([]schema.Value, readCount(r, "values"))
	for i := range values {
		values[i] = ReadValue(r)
	}
	return schema.Row{Values: values, Change: schema.ChangeType(change)}
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
	rows := make([]schema.Row, readRowCount(r))
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

// readRowCount reads a batch's row count: every row spends at least two
// bytes, its change type and its value count.
func readRowCount(r *bin.Reader) int {
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
	n := readRowCount(r)
	if err := r.Err(); err != nil {
		return 0, corrupt(err)
	}
	return n, nil
}
