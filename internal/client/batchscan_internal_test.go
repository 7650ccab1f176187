package client

import (
	"fmt"
	"testing"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

func cursorSchema() *schema.Schema {
	return &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "skipped", Kind: schema.KindInt64, Mode: schema.Nullable}, // not projected
		{Name: "g", Kind: schema.KindInt64, Mode: schema.Nullable},
		{Name: "added", Kind: schema.KindString, Mode: schema.Nullable}, // schema evolution: absent from the file
	}}
}

// encodedTestBatch is nine rows in the encoded layout: k DICT, g RLE
// with runs of 3, 2 and 4, and `added` a CONST NULL vector standing in
// for a column the file predates.
func encodedTestBatch() *ColBatch {
	dict := []schema.Value{schema.String("x"), schema.String("y"), schema.String("z")}
	return &ColBatch{
		FragID:  "frag-1",
		NumRows: 9,
		ColIdx:  []int{0, 2, 3},
		sc:      cursorSchema(),
		encoded: true,
		cols: []wire.Vector{
			wire.DictVector("k", dict, []uint32{0, 1, 2, 0, 1, 2, 0, 1, 2}),
			wire.RLEVector("g", []wire.Run{
				{Len: 3, Value: schema.Int64(10)},
				{Len: 2, Value: schema.Int64(20)},
				{Len: 4, Value: schema.Int64(30)},
			}),
			wire.ConstVector("added", schema.Null(), 9),
		},
		seqs:    []int64{100, 101, 102, 103, 104, 105, 106, 107, 108},
		changes: []byte{0, 0, 1, 0, 0, 2, 0, 0, 1},
	}
}

// TestCursorEncodedSparseSelection walks a sparse selection that skips
// whole runs and lands on both sides of every run boundary: the run
// cursors must agree with Vector.ValueAt for every visited row.
func TestCursorEncodedSparseSelection(t *testing.T) {
	b := encodedTestBatch()
	sel := wire.Selection{0, 2, 3, 5, 8}
	var retained []schema.Row
	k := 0
	for cur := b.Cursor(sel); cur.Next(); k++ {
		i := sel[k]
		if cur.Index() != i || cur.Seq() != b.seqs[i] {
			t.Fatalf("row %d: index %d seq %d, want %d/%d", k, cur.Index(), cur.Seq(), i, b.seqs[i])
		}
		row := cur.Row()
		if len(row.Values) != 4 || row.Change != schema.ChangeType(b.changes[i]) {
			t.Fatalf("row %d: arity %d change %v", k, len(row.Values), row.Change)
		}
		for c, fi := range b.ColIdx {
			if got, want := row.Values[fi].String(), b.cols[c].ValueAt(int(i)).String(); got != want {
				t.Fatalf("row %d field %d = %s, want %s", i, fi, got, want)
			}
		}
		if !row.Values[1].IsNull() || !row.Values[3].IsNull() {
			t.Fatalf("row %d: unprojected/evolved fields not NULL: %v", i, row.Values)
		}
		retained = append(retained, cur.Retain())
	}
	if k != len(sel) {
		t.Fatalf("cursor visited %d rows, want %d", k, len(sel))
	}
	// Retained rows must not alias the scratch row.
	want := []string{`["x" NULL 10 NULL]`, `["z" NULL 10 NULL]`, `["x" NULL 20 NULL]`, `["z" NULL 30 NULL]`, `["z" NULL 30 NULL]`}
	for i, r := range retained {
		if got := fmt.Sprint(r.Values); got != want[i] {
			t.Fatalf("retained row %d = %s, want %s", i, got, want[i])
		}
	}

	// A nil selection visits every physical row.
	n := 0
	for cur := b.Cursor(nil); cur.Next(); n++ {
		if got, want := cur.Row().Values[2].String(), b.cols[1].ValueAt(n).String(); got != want {
			t.Fatalf("full walk row %d g = %s, want %s", n, got, want)
		}
	}
	if n != 9 {
		t.Fatalf("full walk visited %d rows", n)
	}
}

// rowTestBatch is the same logical data as encodedTestBatch in the row
// layout, except that row 4 was written before `added` (and `g`)
// existed and so carries only two values.
func rowTestBatch() *ColBatch {
	enc := encodedTestBatch()
	b := &ColBatch{FragID: "frag-1", NumRows: 9, ColIdx: enc.ColIdx, sc: enc.sc}
	for cur := enc.Cursor(nil); cur.Next(); {
		row := cur.Retain()
		if cur.Index() == 4 {
			row.Values = row.Values[:2]
		}
		b.rows = append(b.rows, PosRow{
			Stamped:   rowenc.Stamped{Row: row, Seq: cur.Seq()},
			FragID:    "frag-1",
			FragLocal: int64(cur.Index()),
		})
	}
	return b
}

// TestCursorRowLayoutShortArity: the row layout hands rows out as
// written — a short row stays short under the cursor — while Vectors
// pads it to NULL and the identity columns record its true arity.
func TestCursorRowLayoutShortArity(t *testing.T) {
	b := rowTestBatch()
	sel := wire.Selection{3, 4, 8}
	var arities []int
	for cur := b.Cursor(sel); cur.Next(); {
		arities = append(arities, len(cur.Row().Values))
		if cur.Seq() != 100+int64(cur.Index()) {
			t.Fatalf("row %d seq %d", cur.Index(), cur.Seq())
		}
	}
	if fmt.Sprint(arities) != "[4 2 4]" {
		t.Fatalf("cursor arities = %v, want [4 2 4]", arities)
	}

	cols, vsel := b.Vectors(sel)
	if vsel != nil || len(cols) != 3 {
		t.Fatalf("row layout emitted %d vectors with selection %v", len(cols), vsel)
	}
	for k, want := range []string{`["x" "y" "z"]`, `[20 NULL 30]`, `[NULL NULL NULL]`} {
		if cols[k].Enc != wire.BatchEncPlain || cols[k].Name != b.sc.Fields[b.ColIdx[k]].Name {
			t.Fatalf("vector %d: enc %d name %q", k, cols[k].Enc, cols[k].Name)
		}
		if got := fmt.Sprint(cols[k].Gather(vsel)); got != want {
			t.Fatalf("vector %q = %s, want %s", cols[k].Name, got, want)
		}
	}
	id := b.IdentityVectors(sel)
	for k, want := range []string{"[103 104 108]", "[4 2 4]", "[0 0 1]"} {
		if got := fmt.Sprint(id[k].Gather(vsel)); got != want {
			t.Fatalf("identity %d = %s, want %s", k, got, want)
		}
	}
}

// TestNarrowLayoutsAgree: the same predicate keeps the same rows on
// both layouts; only the encoded one decides the single-column term in
// code space, and the frames both emit decode to the same rows.
func TestNarrowLayoutsAgree(t *testing.T) {
	terms := []Conjunct{
		{Field: 0, Keep: func(r schema.Row) (bool, error) { return r.Values[0].AsString() != "y", nil }},
		{Field: -1, Keep: func(r schema.Row) (bool, error) {
			return len(r.Values) > 2 && r.Values[2].AsInt64() >= 20 && r.Values[0].AsString() == "z", nil
		}},
	}
	enc, row := encodedTestBatch(), rowTestBatch()
	esel, efs, err := enc.Narrow(enc.Sel, terms)
	if err != nil {
		t.Fatal(err)
	}
	rsel, rfs, err := row.Narrow(row.Sel, terms)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(esel) != "[5 8]" || fmt.Sprint(rsel) != "[5 8]" {
		t.Fatalf("encoded kept %v, row layout kept %v, want [5 8]", esel, rsel)
	}
	if efs.PrunedByCode != 3 || rfs.PrunedByCode != 0 {
		t.Fatalf("code-space pruning: encoded %+v, row layout %+v", efs, rfs)
	}
	var frames [2]string
	for i, b := range []*ColBatch{enc, row} {
		cols, vsel := b.Vectors(esel)
		id := b.IdentityVectors(esel)
		rb, _, err := wire.DecodeRecordBatch(wire.EncodeVectors(append(id[:], cols...), vsel))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rb.Cols {
			frames[i] += fmt.Sprint(c.Values)
		}
	}
	if frames[0] != frames[1] {
		t.Fatalf("layouts encode different frames:\nencoded: %s\nrows:    %s", frames[0], frames[1])
	}
}
