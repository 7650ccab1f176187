package wire

import (
	"encoding/binary"
	"errors"
	"runtime"
	"sort"
	"testing"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/workload"
)

// TestDecodeColumnRefusesRowsPastPayload: a PLAIN or DICT payload spends
// at least a byte per row and per dictionary entry, so a row count or a
// dictionary length larger than the payload is refused before anything
// is sized by it — a ROS column header, a frame header or a page cannot
// make the decoder allocate on its say-so.
func TestDecodeColumnRefusesRowsPastPayload(t *testing.T) {
	const claimed = 1 << 20 // ~24 MiB of schema.Values if it were believed
	plain := rowenc.AppendValue(nil, schema.Int64(7))
	dict := binary.AppendUvarint(nil, 1)
	dict = rowenc.AppendValue(dict, schema.Int64(7))
	dict = append(dict, 0, 0, 0)
	hugeDict := append(binary.AppendUvarint(nil, 1<<62), make([]byte, 8)...)
	for _, tc := range []struct {
		name    string
		enc     byte
		payload []byte
		rows    int
	}{
		{"plain", BatchEncPlain, plain, claimed},
		{"dict", BatchEncDict, dict, claimed},
		{"dictionary length", BatchEncDict, hugeDict, len(hugeDict)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeColumn("c", tc.enc, tc.payload, tc.rows)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: %d rows in %d bytes: err = %v, want ErrBatchCorrupt", tc.name, tc.rows, len(tc.payload), err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("%s: refusing the payload allocated %d bytes", tc.name, got)
		}
	}
	// The same payloads at their true row counts decode.
	if v, err := DecodeColumn("c", BatchEncPlain, plain, 1); err != nil || v.Len() != 1 {
		t.Fatalf("plain: %v, %d rows", err, v.Len())
	}
	if v, err := DecodeColumn("c", BatchEncDict, dict, 3); err != nil || v.Len() != 3 || len(v.Dict) != 1 {
		t.Fatalf("dict: %v, %d rows", err, v.Len())
	}
}

// TestDecodeRecordBatchLengthWrap: a name or payload length near 2^63
// went negative as an int, slipped past the bounds check and panicked
// in the slice expression behind it.
func TestDecodeRecordBatchLengthWrap(t *testing.T) {
	for _, n := range []uint64{1<<63 - 1, 1<<63 + 5, 1<<64 - 1} {
		frame := binary.AppendUvarint(appendBatchHeader(nil, 1, 1), n)
		frame = append(frame, make([]byte, 16)...)
		if _, _, err := DecodeRecordBatch(frame); !errors.Is(err, ErrBatchCorrupt) {
			t.Fatalf("name length %d: err = %v, want ErrBatchCorrupt", n, err)
		}
	}
}

// BenchmarkColumnCodec times the shared column codec on 4 096 Sales rows
// in each of its three shapes: currencyKey (three distinct values — a
// dictionary page), salesOrderKey (unique — PLAIN) and customerKey
// sorted (long runs — RLE). encode is values to bytes, policy included
// (the EncodeRecordBatch column path); decode is bytes back to values
// (DecodeRecordBatch's column path, and a ROS value page materializing).
func BenchmarkColumnCodec(b *testing.B) {
	s := workload.SalesSchema()
	rows := workload.NewGen(1, 64).SalesRows(0, 4096)
	column := func(name string) []schema.Value {
		vals := make([]schema.Value, len(rows))
		for i, r := range rows {
			vals[i] = r.Values[s.FieldIndex(name)]
		}
		return vals
	}
	sorted := column("customerKey")
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	for _, shape := range []struct {
		name string
		enc  byte
		vals []schema.Value
	}{
		{"plain", BatchEncPlain, column("salesOrderKey")},
		{"dict", BatchEncDict, column("currencyKey")},
		{"rle", BatchEncRLE, sorted},
	} {
		v := chooseVector("c", shape.vals)
		if v.Enc != shape.enc {
			b.Fatalf("%s: column chose encoding %d, want %d", shape.name, v.Enc, shape.enc)
		}
		enc, payload := ColumnPayload(&v, nil)
		b.Run(shape.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			var buf []byte
			for i := 0; i < b.N; i++ {
				v := chooseVector("c", shape.vals)
				buf = AppendColumn(buf[:0], &v, nil)
			}
		})
		b.Run(shape.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				v, err := DecodeColumn("c", enc, payload, len(shape.vals))
				if err != nil {
					b.Fatal(err)
				}
				if got := v.Gather(nil); len(got) != len(shape.vals) {
					b.Fatalf("decoded %d values, want %d", len(got), len(shape.vals))
				}
			}
		})
	}
}
