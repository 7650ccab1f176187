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
// typed: every PLAIN row read with rowenc.ReadValue into Values. DICT
// and RLE are decoded as DecodeColumn decodes them.
func oracleDecodeColumn(name string, enc byte, payload []byte, rows int) (Vector, error) {
	if enc != BatchEncPlain {
		return DecodeColumn(name, enc, payload, rows)
	}
	v := Vector{Name: name, Enc: enc}
	if rows < 0 || rows > math.MaxInt32 || rows > len(payload) {
		return v, fmt.Errorf("%w: %d rows in a %d-byte payload", ErrBatchCorrupt, rows, len(payload))
	}
	r := bin.NewReader(payload)
	v.Values = make([]schema.Value, rows)
	for i := range v.Values {
		v.Values[i] = rowenc.ReadValue(r)
	}
	if r.Err() != nil {
		return v, fmt.Errorf("%w: %v", ErrBatchCorrupt, r.Err())
	}
	if r.Len() != 0 {
		return v, fmt.Errorf("%w: %d trailing payload bytes", ErrBatchCorrupt, r.Len())
	}
	return v, nil
}

// plainPayload encodes vals back to back, as a PLAIN page holds them.
func plainPayload(vals ...schema.Value) []byte {
	var p []byte
	for _, v := range vals {
		p = rowenc.AppendValue(p, v)
	}
	return p
}

// FuzzDecodeColumn holds the one-pass typed decoder to the row-at-a-time
// oracle: the same inputs accepted and refused, the same values handed
// out by Gather and ValueAt, and — re-encoded through AppendColumn — the
// same bytes the oracle's values encode to. For a canonical input
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
		if enc == BatchEncDict {
			return // AppendColumn compacts a dictionary; nothing typed to check
		}
		if re, wantRe := AppendColumn(nil, &got, nil), AppendColumn(nil, &want, nil); !bytes.Equal(re, wantRe) {
			t.Fatalf("typed re-encoding\n%x\nwant\n%x", re, wantRe)
		}
	})
}

// TestTypedColumnReencodesItsInput: every accepted FuzzDecodeColumn
// seed re-encodes through AppendColumn to exactly its own bytes, and
// each one of a single scalar kind decodes typed.
func TestTypedColumnReencodesItsInput(t *testing.T) {
	typed := 0
	for _, s := range decodeColumnSeeds() {
		v, err := DecodeColumn("c", s.enc, s.payload, s.rows)
		if err != nil {
			continue
		}
		if v.Typed() {
			typed++
		}
		want := binary.AppendUvarint([]byte{s.enc}, uint64(len(s.payload)))
		if got := AppendColumn(nil, &v, nil); !bytes.Equal(got, append(want, s.payload...)) {
			t.Fatalf("%d rows of %x re-encoded as %x", s.rows, s.payload, got)
		}
	}
	if typed < 17 {
		t.Fatalf("%d seeds decoded typed, want the 17 of one scalar kind", typed)
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
	// A truncated final varint, a BOOL byte of 2, rows past the payload.
	p := plainPayload(schema.Int64(1), schema.Int64(1<<20))
	add(BatchEncPlain, 2, p[:len(p)-1])
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
	return out
}

// sameValue compares two values by their single-value encoding: exact,
// down to a float's bits.
func sameValue(a, b schema.Value) bool {
	return bytes.Equal(rowenc.AppendValue(nil, a), rowenc.AppendValue(nil, b))
}
