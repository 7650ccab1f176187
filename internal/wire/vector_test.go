package wire

import (
	"reflect"
	"testing"

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
