package wire

import (
	"bytes"
	"testing"

	"vortex/internal/schema"
)

// FuzzDecodeRecordBatch feeds arbitrary bytes to the record-batch frame
// decoder the read-session shards stream. Two properties must hold on
// every input: the decoder never panics (hostile frames are rejected
// with ErrBatchCorrupt), and any accepted frame re-encodes to a
// canonical form that is a decode/encode fixpoint.
func FuzzDecodeRecordBatch(f *testing.F) {
	seeds := []*RecordBatch{
		{NumRows: 0},
		{NumRows: 3, Cols: []BatchColumn{
			{Name: "seq", Values: []schema.Value{schema.Int64(1), schema.Int64(2), schema.Int64(3)}},
		}},
		{NumRows: 4, Cols: []BatchColumn{
			{Name: "region", Values: []schema.Value{schema.String("us"), schema.String("us"), schema.String("us"), schema.String("us")}},
			{Name: "sku", Values: []schema.Value{schema.String("a"), schema.String("b"), schema.String("a"), schema.String("b")}},
			{Name: "price", Values: []schema.Value{schema.Float64(1.5), schema.Null(), schema.Float64(-2), schema.Float64(0)}},
		}},
		{NumRows: 2, Cols: []BatchColumn{
			{Name: "blob", Values: []schema.Value{schema.Bytes([]byte{0, 255}), schema.Bytes(nil)}},
			{Name: "tags", Values: []schema.Value{schema.List(schema.Int64(1), schema.Int64(2)), schema.List()}},
		}},
	}
	for _, b := range seeds {
		f.Add(EncodeRecordBatch(b))
	}
	f.Add([]byte{})
	f.Add([]byte{0x42, 0x52, 0x58, 0x56, 0x02, 0xff, 0xff, 0xff})
	f.Add([]byte{0x42, 0x52, 0x58, 0x56, 0x02, 0x02, 0x01, 0x01, 0x61, 0x02, 0x03, 0x01, 0x02, 0x05})
	// TYPED columns of every storage width, with and without NULLs.
	f.Add(EncodeVectors([]Vector{
		IntVector("n", schema.KindInt64, []int64{1, -2, 3}),
		IntVector("b", schema.KindBool, []int64{1, 0, 1}),
		decodedPlain("f", []schema.Value{schema.Float64(1.5), schema.Null(), schema.Float64(-2)}),
		decodedPlain("s", []schema.Value{schema.String("a"), schema.Null(), schema.String("bc")}),
	}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, n, err := DecodeRecordBatch(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("DecodeRecordBatch consumed %d of %d bytes", n, len(data))
		}
		for _, col := range b.Cols {
			if len(col.Values) != b.NumRows {
				t.Fatalf("column %q has %d values, batch claims %d rows", col.Name, len(col.Values), b.NumRows)
			}
		}
		enc := EncodeRecordBatch(b)
		b2, n2, err := DecodeRecordBatch(enc)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("canonical encoding has %d trailing bytes", len(enc)-n2)
		}
		if enc2 := EncodeRecordBatch(b2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixpoint:\n%x\n%x", enc, enc2)
		}
	})
}
