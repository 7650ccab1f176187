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

// TestDecodeColumnRefusesHostileTyped: each TYPED payload a writer never
// produces — an unknown kind or flag, validity bits past the rows, a
// value or string bytes at a NULL row, a BOOL byte above 1, offsets that
// decrease or run past the body, a body longer or shorter than the rows
// need — is refused by DecodeColumn and by the row-at-a-time oracle
// alike, with ErrBatchCorrupt.
func TestDecodeColumnRefusesHostileTyped(t *testing.T) {
	for _, h := range hostileTyped() {
		if v, err := DecodeColumn("c", BatchEncTyped, h.payload, h.rows); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: DecodeColumn err = %v, want ErrBatchCorrupt (decoded %v)", h.name, err, v.Gather(nil))
		}
		if _, err := oracleDecodeColumn("c", BatchEncTyped, h.payload, h.rows); !errors.Is(err, ErrBatchCorrupt) {
			t.Errorf("%s: oracle err = %v, want ErrBatchCorrupt", h.name, err)
		}
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

	// Columns of one scalar kind. plain-* is a ROS value page: decode is
	// DecodeColumn of its PLAIN bytes alone (a page opening into its
	// cached vector), decode-values adds Gather(nil). typed-* is a
	// read-session frame's column: encode is the vector DecodeColumn
	// returns written out as TYPED, whole and through a one-in-three
	// selection (a filtered chunk); decode is DecodeColumn of that TYPED
	// payload, decode-values adds Gather(nil) (DecodeRecordBatch's
	// column path).
	ints := make([]schema.Value, len(rows))
	floats := make([]schema.Value, len(rows))
	numerics := column("totalSale")
	strs := column("salesOrderKey")
	for i := range ints {
		ints[i] = schema.Int64(int64(i) * 2654435761 % 1_000_000_007)
		floats[i] = schema.Float64(float64(i) / 7)
		if i%5 == 4 {
			numerics[i] = schema.Null()
		}
	}
	strNulls := append([]schema.Value(nil), strs...)
	for i := 4; i < len(strNulls); i += 5 {
		strNulls[i] = schema.Null()
	}
	var third Selection
	for i := 0; i < len(rows); i += 3 {
		third = append(third, int32(i))
	}
	decode := func(b *testing.B, enc byte, payload []byte, n int, values bool) {
		b.ReportAllocs()
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			v, err := DecodeColumn("c", enc, payload, n)
			if err != nil {
				b.Fatal(err)
			}
			if got := v.Len(); got != n {
				b.Fatalf("decoded %d rows, want %d", got, n)
			}
			if values && len(v.Gather(nil)) != n {
				b.Fatalf("gathered other than %d values", n)
			}
		}
	}
	for _, shape := range []struct {
		name string
		vals []schema.Value
	}{
		{"int64", ints},
		{"timestamp", column("orderTimestamp")},
		{"numeric-nulls", numerics},
		{"float64", floats},
		{"string", strs},
		{"string-nulls", strNulls},
	} {
		n := len(shape.vals)
		pv := PlainVector("c", shape.vals)
		_, payload := ColumnPayload(&pv, nil)
		v, err := DecodeColumn("c", BatchEncPlain, payload, n)
		if err != nil || !v.Typed() {
			b.Fatalf("%s: %v, typed %v", shape.name, err, v.Typed())
		}
		typedEnc, typed := ColumnPayload(&v, nil)
		b.Run("plain-"+shape.name+"/decode", func(b *testing.B) { decode(b, BatchEncPlain, payload, n, false) })
		b.Run("plain-"+shape.name+"/decode-values", func(b *testing.B) { decode(b, BatchEncPlain, payload, n, true) })
		for _, enc := range []struct {
			name string
			sel  Selection
		}{{"encode", nil}, {"encode-sel3", third}} {
			b.Run("typed-"+shape.name+"/"+enc.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(typed)))
				var buf []byte
				for i := 0; i < b.N; i++ {
					buf = AppendColumn(buf[:0], &v, enc.sel)
				}
			})
		}
		b.Run("typed-"+shape.name+"/decode", func(b *testing.B) { decode(b, typedEnc, typed, n, false) })
		b.Run("typed-"+shape.name+"/decode-values", func(b *testing.B) { decode(b, typedEnc, typed, n, true) })
	}
}

// BenchmarkVectorFilter times the code-space filter on one column of
// 4 096 Sales rows, customerKey = one customer, in each form a scan
// meets it: DICT (one evaluation per distinct value), RLE over the
// sorted column (one per run) and PLAIN as DecodeColumn returns it (one
// per row, each handed a Value built for it).
func BenchmarkVectorFilter(b *testing.B) {
	s := workload.SalesSchema()
	rows := workload.NewGen(1, 64).SalesRows(0, 4096)
	vals := make([]schema.Value, len(rows))
	for i, r := range rows {
		vals[i] = r.Values[s.FieldIndex("customerKey")]
	}
	want := vals[len(vals)/2]
	keep := func(v schema.Value) (bool, error) { return v.Equal(want), nil }
	dict, codes, _ := BuildDict(vals, len(vals))
	sorted := append([]schema.Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	runs, _ := BuildRuns(sorted, len(sorted))
	pv := PlainVector("c", vals)
	_, payload := ColumnPayload(&pv, nil)
	plain, err := DecodeColumn("c", BatchEncPlain, payload, len(vals))
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    Vector
	}{
		{"dict", DictVector("c", dict, codes)},
		{"rle", RLEVector("c", runs)},
		{"plain", plain},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sel, _, err := c.v.Filter(nil, keep)
				if err != nil || len(sel) == 0 {
					b.Fatalf("filter kept %d rows: %v", len(sel), err)
				}
			}
		})
	}
}
