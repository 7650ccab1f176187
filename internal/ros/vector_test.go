package ros

import (
	"testing"

	"vortex/internal/schema"
	"vortex/internal/wire"
)

func flatSchema() *schema.Schema {
	return &schema.Schema{Fields: []*schema.Field{
		{Name: "region", Kind: schema.KindString, Mode: schema.Required},
		{Name: "qty", Kind: schema.KindInt64, Mode: schema.Nullable},
		{Name: "id", Kind: schema.KindInt64, Mode: schema.Required},
	}}
}

// flatRows generates n rows of flatSchema: a three-value region, a qty
// that is NULL every fifth row, a unique id.
func flatRows(n int) []schema.Row {
	regions := []string{"us-west", "us-east", "eu-west"}
	rows := make([]schema.Row, n)
	for i := range rows {
		qty := schema.Null()
		if i%5 != 0 {
			qty = schema.Int64(int64(i % 7))
		}
		rows[i] = schema.NewRow(schema.String(regions[i%3]), qty, schema.Int64(int64(i)))
	}
	return rows
}

func writeFlatFile(t *testing.T, s *schema.Schema, n int) *Reader {
	t.Helper()
	w := NewWriter(s)
	for i, r := range flatRows(n) {
		if err := w.Add(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	return rd
}

// TestVectorsMatchRows checks the encoded-vector view agrees with full
// row assembly, including a dictionary column with interleaved NULLs.
func TestVectorsMatchRows(t *testing.T) {
	s := flatSchema()
	rd := writeFlatFile(t, s, 200)
	vecs, idxs, ok, err := rd.Vectors(s, nil)
	if err != nil || !ok {
		t.Fatalf("Vectors: ok=%v err=%v", ok, err)
	}
	if len(vecs) != 3 {
		t.Fatalf("got %d vectors", len(vecs))
	}
	if vecs[0].Enc != wire.BatchEncDict {
		t.Fatalf("region should come back dictionary-encoded, got %d", vecs[0].Enc)
	}
	if len(vecs[0].Dict) != 3 {
		t.Fatalf("region dict has %d entries, want 3", len(vecs[0].Dict))
	}
	rows, err := rd.Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		for k, v := range vecs {
			got := v.ValueAt(i)
			want := r.Row.Values[idxs[k]]
			if got.String() != want.String() {
				t.Fatalf("row %d col %s: vector %v, rows %v", i, v.Name, got, want)
			}
		}
	}
	if rd.Seqs()[5] != 5 || len(rd.Changes()) != 200 {
		t.Fatal("Seqs/Changes accessors broken")
	}
}

// TestVectorsProjectionSkipsDecode: unprojected columns must stay
// undecoded — the projection-pushdown contract for cached fragments.
func TestVectorsProjectionSkipsDecode(t *testing.T) {
	s := flatSchema()
	rd := writeFlatFile(t, s, 100)
	vecs, idxs, ok, err := rd.Vectors(s, map[string]bool{"id": true})
	if err != nil || !ok {
		t.Fatalf("Vectors: ok=%v err=%v", ok, err)
	}
	if len(vecs) != 1 || idxs[0] != 2 || vecs[0].Name != "id" {
		t.Fatalf("projection leaked: %v %v", vecs, idxs)
	}
	for _, path := range []string{"region", "qty"} {
		c := rd.columns[path]
		c.mu.Lock()
		touched := c.decoded || c.vecDone
		c.mu.Unlock()
		if touched {
			t.Fatalf("unprojected column %q was decoded", path)
		}
	}
}

// TestVectorsNestedMatchRows: struct and repeated fields come back as
// PLAIN vectors of assembled values that agree column-for-column with
// the reference assembler, a nested-only projection decodes no flat
// column, and the assembly is memoized.
func TestVectorsNestedMatchRows(t *testing.T) {
	s := dremelSchema()
	w := NewWriter(s)
	for i, r := range dremelRows() {
		if err := w.Add(r, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Open(data) // a second reader, so the reference decodes nothing on rd
	if err != nil {
		t.Fatal(err)
	}
	rows, err := ref.Rows(s)
	if err != nil {
		t.Fatal(err)
	}
	check := func(projection map[string]bool, wantCols int) []wire.Vector {
		t.Helper()
		vecs, idxs, ok, err := rd.Vectors(s, projection)
		if err != nil || !ok {
			t.Fatalf("Vectors(%v): ok=%v err=%v", projection, ok, err)
		}
		if len(vecs) != wantCols {
			t.Fatalf("Vectors(%v) returned %d columns, want %d", projection, len(vecs), wantCols)
		}
		for k, v := range vecs {
			f := s.Fields[idxs[k]]
			if v.Name != f.Name || v.Len() != len(rows) {
				t.Fatalf("vector %d: name %q len %d, want %q/%d", k, v.Name, v.Len(), f.Name, len(rows))
			}
			if nested := f.Kind == schema.KindStruct || f.Mode == schema.Repeated; nested && v.Enc != wire.BatchEncPlain {
				t.Fatalf("nested field %q came back with encoding %d", f.Name, v.Enc)
			}
			for i, r := range rows {
				if got, want := v.ValueAt(i).String(), r.Row.Values[idxs[k]].String(); got != want {
					t.Fatalf("row %d field %q: vector %s, Rows %s", i, f.Name, got, want)
				}
			}
		}
		return vecs
	}
	first := check(map[string]bool{"Name": true}, 1)
	if c := rd.columns["DocId"]; c.vecDone || c.decoded {
		t.Fatal("projecting only a nested field decoded the flat DocId column")
	}
	again := check(map[string]bool{"Name": true}, 1)
	if &first[0].Values[0] != &again[0].Values[0] {
		t.Fatal("nested vector was assembled twice instead of memoized")
	}
	check(nil, len(s.Fields))
}

// TestVectorsEvolvedFieldReadsNull: a field added after the file was
// written comes back as an all-NULL constant vector.
func TestVectorsEvolvedFieldReadsNull(t *testing.T) {
	s := flatSchema()
	rd := writeFlatFile(t, s, 10)
	evolved, err := s.AddField(&schema.Field{Name: "extra", Kind: schema.KindString, Mode: schema.Nullable})
	if err != nil {
		t.Fatal(err)
	}
	vecs, idxs, ok, err := rd.Vectors(evolved, map[string]bool{"extra": true})
	if err != nil || !ok {
		t.Fatalf("Vectors: ok=%v err=%v", ok, err)
	}
	if len(vecs) != 1 || idxs[0] != 3 || vecs[0].Len() != 10 || !vecs[0].ValueAt(7).IsNull() {
		t.Fatalf("evolved column vector wrong: %v", vecs)
	}
}
