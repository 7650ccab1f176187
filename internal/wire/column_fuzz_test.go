package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"vortex/internal/bin"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// oracleDecodeColumn is DecodeColumn as it was before PLAIN columns were
// typed and before RLE run values shared their strings: every PLAIN row
// and run value read with rowenc.ReadValue. A TYPED payload is read a
// row at a time by oracleTyped into values. DICT is decoded as
// DecodeColumn decodes it.
func oracleDecodeColumn(name string, enc byte, payload []byte, rows int) (Vector, error) {
	if enc == BatchEncTyped {
		if rows < 0 || rows > len(payload) {
			return Vector{}, fmt.Errorf("%w: %d rows in a %d-byte payload", ErrBatchCorrupt, rows, len(payload))
		}
		vals, err := oracleTyped(payload, rows)
		if err != nil {
			return Vector{}, fmt.Errorf("%w: %v", ErrBatchCorrupt, err)
		}
		return PlainVector(name, vals), nil
	}
	if enc != BatchEncPlain && enc != BatchEncRLE {
		return DecodeColumn(name, enc, payload, rows)
	}
	v := Vector{Name: name, Enc: enc}
	if rows < 0 || rows > math.MaxInt32 || (enc == BatchEncPlain && rows > len(payload)) {
		return v, fmt.Errorf("%w: %d rows in a %d-byte payload", ErrBatchCorrupt, rows, len(payload))
	}
	r := bin.NewReader(payload)
	if enc == BatchEncPlain {
		v.Values = make([]schema.Value, rows)
		for i := range v.Values {
			v.Values[i] = rowenc.ReadValue(r)
		}
	}
	for covered := 0; enc == BatchEncRLE && covered < rows; {
		runLen := r.Uvarint()
		if runLen == 0 || runLen > uint64(rows-covered) {
			r.Fail(fmt.Errorf("run length %d with %d rows left", runLen, rows-covered))
			break
		}
		v.Runs = append(v.Runs, Run{Len: int32(runLen), Value: rowenc.ReadValue(r)})
		covered += int(runLen)
	}
	if r.Err() != nil {
		return v, fmt.Errorf("%w: %v", ErrBatchCorrupt, r.Err())
	}
	if r.Len() != 0 {
		return v, fmt.Errorf("%w: %d trailing payload bytes", ErrBatchCorrupt, r.Len())
	}
	return v, nil
}

// oracleTyped reads a TYPED payload a row at a time: each row's value
// read whole from its own bytes — fixed-width, or between its end
// offsets — and checked as it is read.
func oracleTyped(payload []byte, rows int) ([]schema.Value, error) {
	r := bin.NewReader(payload)
	kind, flags := schema.Kind(r.Byte()), r.Byte()
	if r.Err() != nil || !typedKind(kind) || flags > 1 {
		return nil, fmt.Errorf("kind %v, flags %d", kind, flags)
	}
	bitmap := r.Bytes(uint64(flags) * uint64(rows+7) / 8)
	if r.Err() != nil {
		return nil, r.Err()
	}
	valid := func(i int) bool { return flags == 0 || bitmap[i/8]>>(i%8)&1 == 1 }
	for i := rows; i < 8*len(bitmap); i++ {
		if valid(i) {
			return nil, fmt.Errorf("validity bit %d of %d rows", i, rows)
		}
	}
	stringy := kind == schema.KindString || kind == schema.KindJSON
	ends := make([]uint32, 0, rows)
	for i := 0; stringy && i < rows; i++ {
		ends = append(ends, r.Uint32())
	}
	str := payload[r.Pos():]
	vals := make([]schema.Value, rows)
	for i := range vals {
		var empty bool
		switch kind {
		case schema.KindBool:
			b := r.Byte()
			if b > 1 {
				return nil, fmt.Errorf("bool byte %d", b)
			}
			vals[i], empty = schema.Bool(b == 1), b == 0
		case schema.KindFloat64:
			u := r.Uint64()
			vals[i], empty = schema.Float64(math.Float64frombits(u)), u == 0
		case schema.KindString, schema.KindJSON:
			lo := uint32(0)
			if i > 0 {
				lo = ends[i-1]
			}
			if ends[i] < lo || int(ends[i]) > len(str) {
				return nil, fmt.Errorf("row %d ends at %d after %d, of %d bytes", i, ends[i], lo, len(str))
			}
			vals[i], empty = schema.String(string(str[lo:ends[i]])), lo == ends[i]
			if kind == schema.KindJSON {
				vals[i] = schema.RawJSON(string(str[lo:ends[i]]))
			}
		default:
			n := int64(r.Uint64())
			vals[i], empty = schema.IntOf(kind, n), n == 0
		}
		if !valid(i) {
			if !empty {
				return nil, fmt.Errorf("a value at NULL row %d", i)
			}
			vals[i] = schema.Null()
		}
	}
	left := r.Len()
	if stringy {
		left = len(str)
		if rows > 0 {
			left -= int(ends[rows-1])
		}
	}
	if r.Err() != nil || left != 0 {
		return nil, fmt.Errorf("%v, %d bytes left", r.Err(), left)
	}
	return vals, nil
}

// plainPayload encodes vals back to back, as a PLAIN page holds them.
func plainPayload(vals ...schema.Value) []byte {
	var p []byte
	for _, v := range vals {
		p = rowenc.AppendValue(p, v)
	}
	return p
}

// FuzzDecodeColumn holds the one-pass decoders to the row-at-a-time
// oracles: the same inputs accepted and refused, the same values handed
// out by Gather and ValueAt. Re-encoded through AppendColumn, an
// accepted TYPED input gives back exactly its own bytes; a typed PLAIN
// one gives a TYPED column that decodes to the oracle's values, whole
// and under a sparse selection (checkTyped); an untyped one gives the
// bytes the oracle's values encode to. For a canonical PLAIN input
// (minimal varints, as every encoder here writes) those are the input
// bytes themselves, which TestTypedColumnReencodesItsInput checks on the
// seeds; a hostile overlong varint re-encodes minimally either way.
func FuzzDecodeColumn(f *testing.F) {
	for _, s := range decodeColumnSeeds() {
		f.Add(s.enc, s.rows, s.payload)
	}
	f.Fuzz(func(t *testing.T, enc byte, rows int, payload []byte) {
		got, err := DecodeColumn("c", enc, payload, rows)
		want, wantErr := oracleDecodeColumn("c", enc, payload, rows)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeColumn err = %v, oracle err = %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, ErrBatchCorrupt) {
				t.Fatalf("err = %v, want ErrBatchCorrupt", err)
			}
			return
		}
		if got.Len() != rows {
			t.Fatalf("Len = %d, want %d", got.Len(), rows)
		}
		gv, wv := got.Gather(nil), want.Gather(nil)
		for i := range wv {
			if !sameValue(gv[i], wv[i]) || !sameValue(got.ValueAt(i), wv[i]) {
				t.Fatalf("row %d: Gather %v, ValueAt %v, oracle %v", i, gv[i], got.ValueAt(i), wv[i])
			}
		}
		if got.Typed() && got.Valid != nil {
			for i := range wv {
				if got.Valid.Has(i) == wv[i].IsNull() {
					t.Fatalf("row %d: validity %v for %v", i, got.Valid.Has(i), wv[i])
				}
			}
		}
		switch re := AppendColumn(nil, &got, nil); {
		case enc == BatchEncDict:
			// AppendColumn compacts a dictionary; nothing typed to check
		case enc == BatchEncTyped:
			if want := binary.AppendUvarint([]byte{enc}, uint64(len(payload))); !bytes.Equal(re, append(want, payload...)) {
				t.Fatalf("TYPED %x re-encoded as %x", payload, re)
			}
		case got.Typed():
			checkTyped(t, &got, nil, wv)
			var sparse Selection
			for i := 0; i < rows; i += 3 {
				sparse = append(sparse, int32(i))
			}
			checkTyped(t, &got, sparse, wv)
		default:
			if wantRe := AppendColumn(nil, &want, nil); !bytes.Equal(re, wantRe) {
				t.Fatalf("re-encoding\n%x\nwant\n%x", re, wantRe)
			}
		}
		if enc == BatchEncTyped && !got.Typed() {
			t.Fatal("a TYPED payload decoded untyped")
		}
	})
}

// checkTyped checks the TYPED payload of the selected rows of a typed
// vector whose rows hold vals: it decodes, typed, to the selected vals,
// and re-encodes to exactly its own bytes.
func checkTyped(t *testing.T, v *Vector, sel Selection, vals []schema.Value) {
	t.Helper()
	enc, payload := ColumnPayload(v, sel)
	n := sel.Count(len(vals))
	back, err := DecodeColumn("c", enc, payload, n)
	if enc != BatchEncTyped || err != nil || !back.Typed() {
		t.Fatalf("sel %v: encoding %d, %v, typed %v", sel, enc, err, back.Typed())
	}
	for k, got := range back.Gather(nil) {
		if want := vals[selRow(sel, k)]; !sameValue(got, want) {
			t.Fatalf("sel %v: row %d decoded as %v, want %v", sel, k, got, want)
		}
	}
	if _, re := ColumnPayload(&back, nil); !bytes.Equal(re, payload) {
		t.Fatalf("sel %v: TYPED %x re-encoded as %x", sel, payload, re)
	}
}

// TestTypedColumnReencodesItsInput: every accepted FuzzDecodeColumn
// seed that decodes untyped, and every TYPED one, re-encodes through
// AppendColumn to exactly its own bytes. Each PLAIN one of a single
// scalar kind decodes typed, and its TYPED payload — under a nil, an
// empty and a sparse selection — decodes to the same values as its
// PLAIN bytes and re-encodes to exactly itself.
func TestTypedColumnReencodesItsInput(t *testing.T) {
	typed, typedSeeds := 0, 0
	for _, s := range decodeColumnSeeds() {
		v, err := DecodeColumn("c", s.enc, s.payload, s.rows)
		if err != nil {
			continue
		}
		if s.enc == BatchEncPlain && v.Typed() {
			typed++
			vals := v.Gather(nil)
			for _, sel := range []Selection{nil, {}, {0, int32(s.rows - 1)}} {
				checkTyped(t, &v, sel, vals)
			}
			continue
		}
		if s.enc == BatchEncTyped {
			typedSeeds++
		}
		want := binary.AppendUvarint([]byte{s.enc}, uint64(len(s.payload)))
		if got := AppendColumn(nil, &v, nil); !bytes.Equal(got, append(want, s.payload...)) {
			t.Fatalf("%d rows of %x re-encoded as %x", s.rows, s.payload, got)
		}
	}
	if typed < 19 || typedSeeds < 19 {
		t.Fatalf("%d PLAIN seeds decoded typed and %d TYPED seeds decoded, want the 19 of one scalar kind each", typed, typedSeeds)
	}
}

type columnSeed struct {
	enc     byte
	rows    int
	payload []byte
}

func decodeColumnSeeds() []columnSeed {
	ints := func(k schema.Kind, ns ...int64) []schema.Value {
		out := make([]schema.Value, len(ns))
		for i, n := range ns {
			out[i] = schema.IntOf(k, n)
		}
		return out
	}
	null := schema.Null()
	str := schema.String
	seeds := [][]schema.Value{
		ints(schema.KindInt64, 0, -1, 1<<40, math.MinInt64, math.MaxInt64),
		{schema.Int64(3), null, schema.Int64(-3), null},
		ints(schema.KindTimestamp, 1_700_000_000_000_000_000, 0),
		{null, schema.TimestampNanos(5)},
		ints(schema.KindDate, 19000, -1),
		{schema.DateDays(1), null},
		ints(schema.KindNumeric, 12_500_000_000, -1),
		{null, schema.Numeric(7), null},
		{schema.Bool(true), schema.Bool(false)},
		{schema.Bool(true), null},
		{schema.Float64(1.5), schema.Float64(math.Copysign(0, -1)), schema.Float64(math.Inf(1))},
		{schema.Float64(2), null},
		{str("a"), str("bc"), str("")},
		{str(""), null, str("x")},
		{schema.RawJSON(`{"a":1}`), schema.RawJSON(`[]`)},
		{schema.RawJSON(`1`), null},
		{null, null, null},
		// A kind change at row 0 (BYTES is never typed), in the middle,
		// and at the last row.
		{schema.Bytes([]byte{1}), schema.Int64(1), schema.Int64(2)},
		{schema.Int64(1), schema.Int64(2), str("m"), schema.Int64(3)},
		{str("a"), null, str("b"), schema.Int64(9)},
		{schema.Int64(1), schema.TimestampNanos(1), schema.Int64(2)},
		{schema.List(schema.Int64(1)), schema.Int64(2)},
		{schema.Struct(schema.Int64(1), str("s")), null},
	}
	var out []columnSeed
	add := func(enc byte, rows int, payload []byte) { out = append(out, columnSeed{enc, rows, payload}) }
	for _, vals := range seeds {
		add(BatchEncPlain, len(vals), plainPayload(vals...))
	}
	// 9- and 10-byte varints, in a run and at a page's end, the longest
	// that TaggedVarints reads without Uvarint's checks and the ones it
	// hands them.
	add(BatchEncPlain, 4, plainPayload(ints(schema.KindTimestamp, 1<<55, -1<<62, 1<<62, math.MinInt64)...))
	add(BatchEncPlain, 3, plainPayload(ints(schema.KindNumeric, math.MaxInt64, 1<<55, math.MinInt64+1)...))
	// A truncated final varint, a torn 10-byte one, one that overflows
	// (a tenth byte past 1), an 11-byte one, a BOOL byte of 2, rows past
	// the payload.
	p := plainPayload(schema.Int64(1), schema.Int64(1<<20))
	add(BatchEncPlain, 2, p[:len(p)-1])
	p = plainPayload(schema.Int64(1), schema.Int64(math.MinInt64))
	add(BatchEncPlain, 2, p[:len(p)-1])
	add(BatchEncPlain, 2, append(plainPayload(schema.Int64(1)), append([]byte{byte(schema.KindInt64)}, append(bytes.Repeat([]byte{0xff}, 9), 0x02)...)...))
	add(BatchEncPlain, 2, append(plainPayload(schema.Int64(1)), append([]byte{byte(schema.KindInt64)}, append(bytes.Repeat([]byte{0x80}, 10), 0x00)...)...))
	add(BatchEncPlain, 2, []byte{byte(schema.KindBool), 1, byte(schema.KindBool), 2})
	add(BatchEncPlain, 3, plainPayload(schema.Int64(1)))
	// A 65 536-row INT64 page.
	big := make([]schema.Value, 1<<16)
	for i := range big {
		big[i] = schema.Int64(int64(i * 7919))
	}
	add(BatchEncPlain, len(big), plainPayload(big...))
	// The other encodings ride along.
	dict := DictVector("c", []schema.Value{str("x"), null}, []uint32{0, 1, 0})
	enc, payload := ColumnPayload(&dict, nil)
	add(enc, 3, payload)
	runs := RLEVector("c", []Run{{Len: 2, Value: schema.Int64(4)}, {Len: 1, Value: null}})
	enc, payload = ColumnPayload(&runs, nil)
	add(enc, 3, payload)
	// Strings shared by runs, with a JSON run, an empty string and a
	// BYTES run beside them.
	runs = RLEVector("c", []Run{{Len: 2, Value: str("ab")}, {Len: 1, Value: schema.RawJSON(`{}`)}, {Len: 1, Value: str("")},
		{Len: 2, Value: schema.Bytes([]byte("b"))}, {Len: 1, Value: str("cd")}})
	enc, payload = ColumnPayload(&runs, nil)
	add(enc, 7, payload)
	// The TYPED payload of every PLAIN seed of one scalar kind, whole and
	// over its odd rows, then the hostile TYPED payloads.
	for _, vals := range seeds {
		v, err := DecodeColumn("c", BatchEncPlain, plainPayload(vals...), len(vals))
		if err != nil || !v.Typed() {
			continue
		}
		enc, payload = ColumnPayload(&v, nil)
		add(enc, len(vals), payload)
		var odd Selection
		for i := 1; i < len(vals); i += 2 {
			odd = append(odd, int32(i))
		}
		enc, payload = ColumnPayload(&v, odd)
		add(enc, len(odd), payload)
	}
	for _, h := range hostileTyped() {
		add(BatchEncTyped, h.rows, h.payload)
	}
	return out
}

// hostileTyped returns TYPED payloads a writer never produces, each
// wrong in one way, with the rows they claim.
func hostileTyped() []struct {
	name    string
	rows    int
	payload []byte
} {
	le64 := func(ns ...uint64) []byte {
		var p []byte
		for _, n := range ns {
			p = binary.LittleEndian.AppendUint64(p, n)
		}
		return p
	}
	le32 := func(ns ...uint32) []byte {
		var p []byte
		for _, n := range ns {
			p = binary.LittleEndian.AppendUint32(p, n)
		}
		return p
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	i64, f64, boolean, str := byte(schema.KindInt64), byte(schema.KindFloat64), byte(schema.KindBool), byte(schema.KindString)
	return []struct {
		name    string
		rows    int
		payload []byte
	}{
		{"BYTES kind", 1, cat([]byte{byte(schema.KindBytes), 0}, le32(1), []byte("a"))},
		{"kind 0xff", 1, cat([]byte{0xff, 0}, le64(1))},
		{"unknown flag", 1, cat([]byte{i64, 2}, le64(1))},
		{"flags 3", 1, cat([]byte{i64, 3, 1}, le64(1))},
		{"validity bit past the rows", 3, cat([]byte{i64, 1, 0x0f}, le64(1, 2, 3))},
		{"more rows than payload bytes", 9, []byte{i64, 1, 0xff}},
		{"an INT64 at a NULL row", 2, cat([]byte{i64, 1, 0x01}, le64(5, 7))},
		{"a FLOAT64 -0 at a NULL row", 2, cat([]byte{f64, 1, 0x01}, le64(0, 1<<63))},
		{"a BOOL true at a NULL row", 2, []byte{boolean, 1, 0x02, 1, 1}},
		{"BOOL byte 2", 2, []byte{boolean, 0, 1, 2}},
		{"offsets that decrease", 2, cat([]byte{str, 0}, le32(2, 1), []byte("ab"))},
		{"an offset past the body", 2, cat([]byte{str, 0}, le32(1, 5), []byte("ab"))},
		{"offsets giving a NULL row bytes", 2, cat([]byte{str, 1, 0x01}, le32(1, 2), []byte("ab"))},
		{"string bytes past the last offset", 1, cat([]byte{str, 0}, le32(1), []byte("ab"))},
		{"offsets cut short", 2, cat([]byte{str, 0}, le32(0), []byte{0, 0})},
		{"an INT64 body a byte long", 1, cat([]byte{i64, 0}, le64(1), []byte{0})},
		{"an INT64 body a byte short", 2, cat([]byte{i64, 0}, le64(1, 2))[:17]},
		{"a BOOL body a byte long", 2, []byte{boolean, 0, 1, 0, 1}},
		{"a FLOAT64 body a byte short", 1, cat([]byte{f64, 0}, le64(1))[:9]},
		{"no flags", 0, []byte{i64}},
	}
}

// sameValue compares two values by their single-value encoding: exact,
// down to a float's bits.
func sameValue(a, b schema.Value) bool {
	return bytes.Equal(rowenc.AppendValue(nil, a), rowenc.AppendValue(nil, b))
}
