package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/schema"
)

func intCol(name string, vals ...int64) BatchColumn {
	col := BatchColumn{Name: name}
	for _, v := range vals {
		col.Values = append(col.Values, schema.Int64(v))
	}
	return col
}

func strCol(name string, vals ...string) BatchColumn {
	col := BatchColumn{Name: name}
	for _, v := range vals {
		col.Values = append(col.Values, schema.String(v))
	}
	return col
}

func roundTrip(t *testing.T, b *RecordBatch) *RecordBatch {
	t.Helper()
	enc := EncodeRecordBatch(b)
	got, n, err := DecodeRecordBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
	}
	if got.NumRows != b.NumRows || len(got.Cols) != len(b.Cols) {
		t.Fatalf("shape mismatch: got %d rows/%d cols, want %d/%d", got.NumRows, len(got.Cols), b.NumRows, len(b.Cols))
	}
	for i, col := range got.Cols {
		if col.Name != b.Cols[i].Name {
			t.Fatalf("col %d name %q, want %q", i, col.Name, b.Cols[i].Name)
		}
		for j, v := range col.Values {
			if !v.Equal(b.Cols[i].Values[j]) {
				t.Fatalf("col %q row %d: %v != %v", col.Name, j, v, b.Cols[i].Values[j])
			}
		}
	}
	return got
}

func TestRecordBatchRoundTrip(t *testing.T) {
	b := &RecordBatch{
		NumRows: 6,
		Cols: []BatchColumn{
			intCol("seq", 10, 11, 12, 13, 14, 15),                // plain
			strCol("region", "us", "us", "us", "eu", "eu", "eu"), // rle
			strCol("sku", "a", "b", "a", "b", "a", "b"),          // dict
			{Name: "price", Values: make([]schema.Value, 6)},     // nulls
			strCol("note", "x1", "x2", "x3", "x4", "x5", "x6"),   // plain strings
			intCol("qty", 7, 7, 7, 7, 7, 7),                      // single run
			{Name: "mix", Values: []schema.Value{schema.Null(), schema.Bool(true), schema.Float64(2.5), schema.Bytes([]byte{0, 1}), schema.List(schema.Int64(1)), schema.String("s")}},
		},
	}
	for i := range b.Cols[3].Values {
		b.Cols[3].Values[i] = schema.Null()
	}
	roundTrip(t, b)
}

func TestRecordBatchEmpty(t *testing.T) {
	roundTrip(t, &RecordBatch{NumRows: 0})
	roundTrip(t, &RecordBatch{NumRows: 0, Cols: []BatchColumn{{Name: "a"}}})
	roundTrip(t, &RecordBatch{NumRows: 3}) // rows without columns
}

func TestRecordBatchEncodingChoice(t *testing.T) {
	runLengthy := intCol("c", 1, 1, 1, 1, 2, 2, 2, 2)
	if enc := chooseVector("c", runLengthy.Values).Enc; enc != BatchEncRLE {
		t.Fatalf("run-heavy column chose encoding %d, want RLE", enc)
	}
	lowCard := strCol("c", "a", "b", "a", "b", "a", "b", "a", "b")
	if enc := chooseVector("c", lowCard.Values).Enc; enc != BatchEncDict {
		t.Fatalf("low-cardinality column chose encoding %d, want DICT", enc)
	}
	unique := intCol("c", 1, 2, 3, 4, 5, 6, 7, 8)
	if enc := chooseVector("c", unique.Values).Enc; enc != BatchEncPlain {
		t.Fatalf("unique column chose encoding %d, want PLAIN", enc)
	}
}

func TestRecordBatchCorruption(t *testing.T) {
	b := &RecordBatch{NumRows: 4, Cols: []BatchColumn{
		intCol("seq", 1, 2, 3, 4),
		strCol("region", "us", "us", "eu", "eu"),
	}}
	enc := EncodeRecordBatch(b)
	// Flipping any single byte must be rejected: either the CRC catches
	// it or a structural guard does. It must never decode cleanly into a
	// different batch.
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if got, _, err := DecodeRecordBatch(mut); err == nil {
			if fmt.Sprint(got) != fmt.Sprint(b) {
				t.Fatalf("byte %d flip decoded cleanly into a different batch", i)
			}
		}
	}
	// Truncations are rejected.
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeRecordBatch(enc[:i]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", i)
		}
	}
	if _, _, err := DecodeRecordBatch(nil); !errors.Is(err, ErrBatchCorrupt) {
		t.Fatalf("empty input: %v", err)
	}
}

// TestDecodeRecordBatchRefusesVersion1: a frame stamped with version 1,
// its CRC intact, is refused as corrupt rather than read. That holds for
// one whose PLAIN bytes version 2 would read the same, and for one
// carrying a TYPED column, which version 1 never wrote.
func TestDecodeRecordBatchRefusesVersion1(t *testing.T) {
	plain := EncodeRecordBatch(&RecordBatch{NumRows: 3, Cols: []BatchColumn{intCol("seq", 1, 2, 3)}})
	typed := EncodeVectors([]Vector{IntVector("seq", schema.KindInt64, []int64{1, 2, 3})}, nil)
	for name, frame := range map[string][]byte{"plain": plain, "typed": typed} {
		if _, _, err := DecodeRecordBatch(frame); err != nil {
			t.Fatalf("%s: version %d frame refused: %v", name, frame[4], err)
		}
		v1 := append([]byte(nil), frame[:len(frame)-4]...)
		v1[4] = 1
		v1 = binary.LittleEndian.AppendUint32(v1, blockenc.Checksum(v1))
		if _, _, err := DecodeRecordBatch(v1); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: version 1 frame: err = %v, want ErrBatchCorrupt", name, err)
		}
		if _, _, _, err := DecodeVectors(v1); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: version 1 frame through DecodeVectors: err = %v, want ErrBatchCorrupt", name, err)
		}
	}
}

func TestRecordBatchCanonicalFixpoint(t *testing.T) {
	b := &RecordBatch{NumRows: 5, Cols: []BatchColumn{
		strCol("k", "a", "a", "b", "b", "b"),
		intCol("v", 9, 9, 9, 1, 2),
	}}
	enc := EncodeRecordBatch(b)
	dec, _, err := DecodeRecordBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if enc2 := EncodeRecordBatch(dec); !bytes.Equal(enc, enc2) {
		t.Fatal("encode/decode is not a fixpoint")
	}
}
