package wire

import (
	"reflect"
	"testing"

	"vortex/internal/bin"
	"vortex/internal/schema"
)

func i64s(vals ...int64) []schema.Value {
	out := make([]schema.Value, len(vals))
	for i, v := range vals {
		out[i] = schema.Int64(v)
	}
	return out
}

// decodedPlain is vals decoded from their PLAIN payload: the typed
// form when they are NULLs and one scalar kind.
func decodedPlain(name string, vals []schema.Value) Vector {
	v, err := DecodeColumn(name, BatchEncPlain, plainPayload(vals...), len(vals))
	if err != nil {
		panic(err)
	}
	return v
}

// testVectors returns the same logical column (0,0,1,1,1,2,NULL,2) in
// all three encodings, PLAIN both as values and typed.
func testVectors() []Vector {
	plain := []schema.Value{
		schema.Int64(0), schema.Int64(0), schema.Int64(1), schema.Int64(1),
		schema.Int64(1), schema.Int64(2), schema.Null(), schema.Int64(2),
	}
	dict := []schema.Value{schema.Int64(0), schema.Int64(1), schema.Int64(2), schema.Null()}
	codes := []uint32{0, 0, 1, 1, 1, 2, 3, 2}
	runs := []Run{
		{Len: 2, Value: schema.Int64(0)},
		{Len: 3, Value: schema.Int64(1)},
		{Len: 1, Value: schema.Int64(2)},
		{Len: 1, Value: schema.Null()},
		{Len: 1, Value: schema.Int64(2)},
	}
	return []Vector{
		PlainVector("c", plain),
		DictVector("c", dict, codes),
		RLEVector("c", runs),
		decodedPlain("c", plain),
	}
}

func TestVectorValueAtAndGather(t *testing.T) {
	want := testVectors()[0].Values
	if typed := testVectors()[3]; !typed.Typed() || typed.Valid.Has(6) || !typed.Valid.Has(7) {
		t.Fatalf("PLAIN ints with a NULL decoded as %+v, want typed with row 6 NULL", typed)
	}
	for _, v := range testVectors() {
		if v.Len() != len(want) {
			t.Fatalf("enc %d: Len=%d want %d", v.Enc, v.Len(), len(want))
		}
		for i := range want {
			got := v.ValueAt(i)
			if got.String() != want[i].String() {
				t.Fatalf("enc %d: ValueAt(%d)=%v want %v", v.Enc, i, got, want[i])
			}
		}
		if got := v.Gather(nil); !valuesEqual(got, want) {
			t.Fatalf("enc %d: Gather(nil)=%v want %v", v.Enc, got, want)
		}
		sel := Selection{0, 2, 5, 6, 7}
		got := v.Gather(sel)
		for k, i := range sel {
			if got[k].String() != want[i].String() {
				t.Fatalf("enc %d: Gather(%v)[%d]=%v want %v", v.Enc, sel, k, got[k], want[i])
			}
		}
	}
}

func valuesEqual(a, b []schema.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// TestVectorFilterCodeSkips checks that DICT and RLE filters decide in
// code space: DICT evaluates once per dictionary entry, RLE once per
// run, and both report the rows they dropped as pruned-by-code.
func TestVectorFilterCodeSkips(t *testing.T) {
	keepGE2 := func(v schema.Value) (bool, error) {
		return !v.IsNull() && v.AsInt64() >= 2, nil
	}
	wantSel := Selection{5, 7}
	for _, v := range testVectors() {
		sel, st, err := v.Filter(nil, keepGE2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sel, wantSel) {
			t.Fatalf("enc %d: sel=%v want %v", v.Enc, sel, wantSel)
		}
		switch v.Enc {
		case BatchEncPlain:
			if st.Evaluated != 8 || st.PrunedByCode != 0 {
				t.Fatalf("plain: stats %+v", st)
			}
		case BatchEncDict:
			if st.Evaluated != 4 {
				t.Fatalf("dict: evaluated %d, want one per dict entry (4)", st.Evaluated)
			}
			if st.PrunedByCode != 6 {
				t.Fatalf("dict: pruned %d, want 6", st.PrunedByCode)
			}
		case BatchEncRLE:
			if st.Evaluated != 5 {
				t.Fatalf("rle: evaluated %d, want one per run (5)", st.Evaluated)
			}
			if st.PrunedByCode != 6 {
				t.Fatalf("rle: pruned %d, want 6", st.PrunedByCode)
			}
		}
	}
}

// TestVectorFilterRunBoundaries exercises adversarial run shapes: a
// selection that starts mid-run, ends mid-run, skips whole runs, and
// includes single-row runs at both edges.
func TestVectorFilterRunBoundaries(t *testing.T) {
	v := RLEVector("c", []Run{
		{Len: 1, Value: schema.Int64(9)}, // single-row head
		{Len: 4, Value: schema.Int64(1)},
		{Len: 2, Value: schema.Int64(9)},
		{Len: 3, Value: schema.Int64(1)},
		{Len: 1, Value: schema.Int64(9)}, // single-row tail
	})
	// Pre-selection straddles every boundary: {0,2,3,5,6,7,9,10}.
	pre := Selection{0, 2, 3, 5, 6, 7, 9, 10}
	keep9 := func(v schema.Value) (bool, error) { return v.AsInt64() == 9, nil }
	sel, st, err := v.Filter(pre, keep9)
	if err != nil {
		t.Fatal(err)
	}
	want := Selection{0, 5, 6, 10}
	if !reflect.DeepEqual(sel, want) {
		t.Fatalf("sel=%v want %v", sel, want)
	}
	if st.PrunedByCode != 4 {
		t.Fatalf("pruned %d want 4", st.PrunedByCode)
	}
	// Filtering an already-narrowed selection composes.
	sel2, _, err := v.Filter(sel, func(v schema.Value) (bool, error) { return true, nil })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel2, want) {
		t.Fatalf("compose: sel=%v want %v", sel2, want)
	}
}

// TestEncodeVectorsRoundTrip checks the direct vector encoder emits
// frames DecodeRecordBatch accepts, with selected rows materializing
// identically to a Gather.
func TestEncodeVectorsRoundTrip(t *testing.T) {
	vecs := testVectors()
	sels := []Selection{nil, {}, {0}, {0, 2, 5, 6, 7}, {6}, {0, 1, 2, 3, 4, 5, 6, 7}}
	for _, sel := range sels {
		cols := append(vecs[:len(vecs):len(vecs)], ConstVector("k", schema.Int64(7), 8))
		for i := range cols {
			cols[i].Name = string(rune('a' + i))
		}
		data := EncodeVectors(cols, sel)
		b, n, err := DecodeRecordBatch(data)
		if err != nil {
			t.Fatalf("sel %v: decode: %v", sel, err)
		}
		if n != len(data) {
			t.Fatalf("sel %v: %d trailing bytes", sel, len(data)-n)
		}
		wantRows := len(sel)
		if sel == nil {
			wantRows = 8
		}
		if b.NumRows != wantRows {
			t.Fatalf("sel %v: rows %d want %d", sel, b.NumRows, wantRows)
		}
		for i, c := range cols {
			want := c.Gather(sel)
			if !valuesEqual(b.Cols[i].Values, want[:wantRows]) {
				t.Fatalf("sel %v col %s: %v want %v", sel, c.Name, b.Cols[i].Values, want)
			}
		}
	}
}

// TestEncodeVectorsDictCompaction: a selection touching one dictionary
// code must compact the dictionary so dictLen <= rows holds.
func TestEncodeVectorsDictCompaction(t *testing.T) {
	dict := make([]schema.Value, 300)
	codes := make([]uint32, 300)
	for i := range dict {
		dict[i] = schema.Int64(int64(i))
		codes[i] = uint32(i)
	}
	v := DictVector("c", dict, codes)
	data := EncodeVectors([]Vector{v}, Selection{7, 8})
	b, _, err := DecodeRecordBatch(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !valuesEqual(b.Cols[0].Values, i64s(7, 8)) {
		t.Fatalf("got %v", b.Cols[0].Values)
	}
}

func FuzzSelectionGather(f *testing.F) {
	f.Add(uint16(0x0f), uint8(0), uint8(3))
	f.Add(uint16(0xaaaa), uint8(1), uint8(7))
	f.Add(uint16(0xffff), uint8(2), uint8(1))
	f.Add(uint16(0x5a5a), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, selBits uint16, encPick uint8, mod uint8) {
		if mod == 0 {
			mod = 1
		}
		const n = 16
		vals := make([]schema.Value, n)
		for i := range vals {
			if i%int(mod) == int(mod)-1 && mod > 1 {
				vals[i] = schema.Null()
			} else {
				vals[i] = schema.Int64(int64(i % int(mod)))
			}
		}
		var v Vector
		switch encPick % 4 {
		case 0:
			v = PlainVector("c", vals)
		case 3:
			v = decodedPlain("c", vals)
			if !v.Typed() {
				t.Fatalf("%v decoded untyped", vals)
			}
		case 1:
			var dict []schema.Value
			idx := map[string]uint32{}
			codes := make([]uint32, n)
			for i, val := range vals {
				k := val.String()
				c, ok := idx[k]
				if !ok {
					c = uint32(len(dict))
					idx[k] = c
					dict = append(dict, val)
				}
				codes[i] = c
			}
			v = DictVector("c", dict, codes)
		case 2:
			var runs []Run
			for i := 0; i < n; {
				j := i + 1
				for j < n && vals[j].String() == vals[i].String() {
					j++
				}
				runs = append(runs, Run{Len: int32(j - i), Value: vals[i]})
				i = j
			}
			v = RLEVector("c", runs)
		}
		// Explicitly non-nil: an empty selection means zero rows,
		// while nil means "all rows".
		sel := Selection{}
		for i := 0; i < n; i++ {
			if selBits&(1<<i) != 0 {
				sel = append(sel, int32(i))
			}
		}
		// Applying a selection must agree with per-row access.
		got := v.Gather(sel)
		if len(got) != len(sel) {
			t.Fatalf("gather returned %d values for %d selected", len(got), len(sel))
		}
		for k, i := range sel {
			if got[k].String() != vals[i].String() {
				t.Fatalf("gather[%d]=%v want %v", k, got[k], vals[i])
			}
		}
		// And the direct encoder must round-trip the same rows.
		data := EncodeVectors([]Vector{v}, sel)
		b, _, err := DecodeRecordBatch(data)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if b.NumRows != len(sel) {
			t.Fatalf("encoded %d rows, want %d", b.NumRows, len(sel))
		}
		for k := range sel {
			if b.Cols[0].Values[k].String() != got[k].String() {
				t.Fatalf("roundtrip[%d]=%v want %v", k, b.Cols[0].Values[k], got[k])
			}
		}
	})
}

// TestTypedFrameBytesMatchValues: a frame of typed columns, with NULLs
// or without, carries each as TYPED and decodes to the values the frame
// of those values decodes to, typed wherever that frame's decode types
// them — and where every selected row is NULL, or none is selected, as
// well — for every typed kind and a nil, sparse or empty selection; DICT and
// RLE columns beside them in the frame decode exactly as they do beside
// the values.
func TestTypedFrameBytesMatchValues(t *testing.T) {
	cols := [][]schema.Value{
		i64s(0, -1, 1<<40, 63, 64, -65, 7, 0),
		{schema.TimestampNanos(1), schema.TimestampNanos(-300), schema.TimestampNanos(1 << 50), schema.TimestampNanos(0),
			schema.TimestampNanos(9), schema.TimestampNanos(8), schema.TimestampNanos(7), schema.TimestampNanos(6)},
		{schema.DateDays(19000), schema.Null(), schema.DateDays(-1), schema.DateDays(0), schema.DateDays(1), schema.DateDays(2), schema.DateDays(3), schema.Null()},
		{schema.Numeric(5), schema.Numeric(-5), schema.Null(), schema.Numeric(1 << 33), schema.Numeric(0), schema.Null(), schema.Numeric(3), schema.Numeric(2)},
		{schema.Bool(true), schema.Bool(false), schema.Bool(true), schema.Bool(true), schema.Bool(false), schema.Bool(false), schema.Bool(true), schema.Bool(false)},
		{schema.Float64(1.5), schema.Float64(-0.25), schema.Float64(0), schema.Float64(1e300), schema.Null(), schema.Float64(2), schema.Float64(3), schema.Float64(4)},
		{schema.String(""), schema.String("a"), schema.String("bc"), schema.Null(), schema.String("d"), schema.String("e"), schema.String("ff"), schema.String("g")},
		{schema.RawJSON(`{}`), schema.RawJSON(`[1]`), schema.Null(), schema.RawJSON(`"x"`), schema.RawJSON(`2`), schema.RawJSON(`null`), schema.RawJSON(`true`), schema.RawJSON(`{"a":1}`)},
		i64s(3, 3, 3, 3, 3, 3, 3, 3),
	}
	for _, sel := range []Selection{nil, {}, {1, 3, 4, 7}, {5}} {
		var typed, values []Vector
		for k, vals := range cols {
			v := decodedPlain(string(rune('a'+k)), vals)
			if !v.Typed() {
				t.Fatalf("column %d decoded untyped", k)
			}
			typed = append(typed, v)
			values = append(values, PlainVector(v.Name, vals))
		}
		enc := testVectors()[1:3] // DICT and RLE
		enc[0].Name, enc[1].Name = "x", "y"
		typed, values = append(typed, enc...), append(values, enc...)
		frame := EncodeVectors(typed, sel)
		got, rows, _, err := DecodeVectors(frame)
		if err != nil {
			t.Fatalf("sel %v: %v", sel, err)
		}
		want, wantRows, _, err := DecodeVectors(EncodeVectors(values, sel))
		if err != nil || rows != wantRows {
			t.Fatalf("sel %v: %d rows, values frame %d rows: %v", sel, rows, wantRows, err)
		}
		for k := range got {
			if k < len(cols) && framedEncoding(t, frame, k) != BatchEncTyped {
				t.Fatalf("sel %v: column %s framed as %d, want TYPED", sel, got[k].Name, framedEncoding(t, frame, k))
			}
			if (want[k].Typed() && !got[k].Typed()) || !valuesEqual(got[k].Gather(nil), want[k].Gather(nil)) {
				t.Fatalf("sel %v: column %s decoded %v (typed %v), values frame %v (typed %v)",
					sel, got[k].Name, got[k].Gather(nil), got[k].Typed(), want[k].Gather(nil), want[k].Typed())
			}
			if k >= len(cols) && !reflect.DeepEqual(got[k], want[k]) {
				t.Fatalf("sel %v: column %s decoded %+v beside typed columns, %+v beside values", sel, got[k].Name, got[k], want[k])
			}
		}
	}
}

// framedEncoding is the encoding byte of column k of a frame.
func framedEncoding(t *testing.T, frame []byte, k int) byte {
	r := bin.NewReader(frame)
	r.Uint32()
	r.Byte()
	r.Uvarint()
	r.Uvarint()
	for ; k > 0; k-- {
		r.Block()
		r.Byte()
		r.Block()
	}
	r.Block()
	enc := r.Byte()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return enc
}
