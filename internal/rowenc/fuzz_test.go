package rowenc

import (
	"bytes"
	"testing"
	"time"

	"vortex/internal/schema"
)

// FuzzDecodeRow feeds arbitrary bytes to the row decoder. Two
// properties must hold on every input: the decoder never panics (hostile
// inputs are rejected with ErrCorrupt), and any accepted input
// re-encodes to a canonical form that is a decode/encode fixpoint.
func FuzzDecodeRow(f *testing.F) {
	seeds := []schema.Row{
		schema.NewRow(),
		schema.NewRow(schema.String("host-1"), schema.Int64(42)),
		schema.NewRow(schema.Null(), schema.Float64(3.5), schema.Bool(true)),
		schema.NewRow(schema.Bytes([]byte{0, 1, 255}), schema.Timestamp(time.Unix(1700000000, 0))),
		schema.NewRow(schema.List(schema.Int64(1), schema.Int64(2), schema.Int64(3))),
	}
	for _, r := range seeds {
		f.Add(AppendRow(nil, r))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{0x00, 0x01, 0x20, 0xff})

	nested := AppendRow(nil, schema.NewRow(schema.Struct(schema.List(schema.Int64(7), schema.List()), schema.String("s")), schema.Bool(true)))
	f.Add(nested)
	f.Add(append(nested[:len(nested)-1:len(nested)-1], 2)) // a BOOL byte of 2 after a nested value

	f.Fuzz(func(t *testing.T, data []byte) {
		row, n, err := DecodeRow(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("DecodeRow consumed %d of %d bytes", n, len(data))
		}
		sizedRight(t, row)
		enc := AppendRow(nil, row)
		row2, n2, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("re-decoding canonical encoding: %v", err)
		}
		if n2 != len(enc) {
			t.Fatalf("canonical encoding has %d trailing bytes", len(enc)-n2)
		}
		if enc2 := AppendRow(nil, row2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode not a fixpoint:\n%x\n%x", enc, enc2)
		}
	})
}

// FuzzDecodeRows exercises the multi-row frame decoder; it must reject
// hostile frames without panicking and round-trip whatever it accepts.
func FuzzDecodeRows(f *testing.F) {
	f.Add(EncodeRows(nil))
	f.Add(EncodeRows([]schema.Row{
		schema.NewRow(schema.String("a")),
		schema.NewRow(schema.String("b"), schema.Int64(-7)),
	}))
	f.Add([]byte{0x80})
	f.Add([]byte{0x02, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		rows, err := DecodeRows(data)
		if err != nil {
			return
		}
		enc := EncodeRows(rows)
		rows2, err := DecodeRows(enc)
		if err != nil || len(rows2) != len(rows) {
			t.Fatalf("re-decoding canonical frame: %d rows, %v", len(rows2), err)
		}
		if enc2 := EncodeRows(rows2); !bytes.Equal(enc, enc2) {
			t.Fatal("encode/decode of row frame not a fixpoint")
		}
	})
}
