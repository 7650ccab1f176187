package ros

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vortex/internal/schema"
	"vortex/internal/wire"
)

// columnsOf transposes rows into the top-level columns AddColumns takes,
// each typed where its values are of one scalar kind, as a scan's are.
func columnsOf(s *schema.Schema, rows []schema.Row) (cols []wire.Vector, seqs []int64, changes []byte) {
	cols = make([]wire.Vector, len(s.Fields))
	for f := range cols {
		vals := make([]schema.Value, len(rows))
		for i, r := range rows {
			vals[i] = schema.Null()
			if f < len(r.Values) {
				vals[i] = r.Values[f]
			}
		}
		cols[f] = typedColumn(s.Fields[f].Name, vals)
	}
	seqs, changes = make([]int64, len(rows)), make([]byte, len(rows))
	for i, r := range rows {
		seqs[i], changes[i] = int64(1000-i), byte(r.Change)
	}
	return cols, seqs, changes
}

// typedColumn is vals as the vector a scan hands over: typed where they
// are NULL or of one scalar kind, PLAIN values otherwise.
func typedColumn(name string, vals []schema.Value) wire.Vector {
	b := wire.NewColumnBuilder(name, len(vals), math.MaxInt32)
	plain := wire.PlainVector(name, vals)
	b.AppendVector(&plain, nil)
	return b.Vector()
}

// TestAddColumnsEqualsAdd: a file written from columns through a
// permutation, in one call or several, is byte for byte the file the
// same rows make added one at a time in that order — nested, repeated,
// nullable and short-arity rows, mixed partitions, change types.
func TestAddColumnsEqualsAdd(t *testing.T) {
	keyed := flatSchema()
	keyed.PrimaryKey = []string{keyed.Fields[0].Name}
	for si, s := range []*schema.Schema{dremelSchema(), salesSchema(), flatSchema(), keyed} {
		for trial := 0; trial < 25; trial++ {
			rng := rand.New(rand.NewSource(int64(100*si + trial)))
			rows := make([]schema.Row, rng.Intn(200))
			for i := range rows {
				rows[i] = schema.RandomRow(rng, s)
				if last := len(rows[i].Values) - 1; trial%3 == 0 && s.Fields[last].Mode != schema.Required {
					rows[i].Values = rows[i].Values[:last] // written before the last field was added
				}
				if len(s.PrimaryKey) > 0 {
					rows[i].Change = schema.ChangeType(rng.Intn(3))
				}
			}
			cols, seqs, changes := columnsOf(s, rows)
			perm := make([]int32, 0, len(rows))
			for _, i := range rng.Perm(len(rows)) {
				if rng.Intn(4) > 0 { // a subset, as after compaction
					perm = append(perm, int32(i))
				}
			}

			byRow := NewWriter(s)
			byRow.AllowMixedPartitions()
			for _, i := range perm {
				if err := byRow.Add(rows[i], seqs[i]); err != nil {
					t.Fatal(err)
				}
			}
			want, err := byRow.Finish()
			if err != nil {
				t.Fatal(err)
			}
			for _, calls := range []int{1, 3} {
				w := NewWriter(s)
				w.AllowMixedPartitions()
				for c := 0; c < calls; c++ {
					part := perm[c*len(perm)/calls : (c+1)*len(perm)/calls]
					if err := w.AddColumns(cols, seqs, changes, part); err != nil {
						t.Fatal(err)
					}
				}
				got, err := w.Finish()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("schema %d trial %d: %d rows in %d calls: file differs from the row-at-a-time file", si, trial, len(perm), calls)
				}
				if !reflect.DeepEqual(w.Partitions(), byRow.Partitions()) || !bytes.Equal(w.Bloom(), byRow.Bloom()) || w.RowCount() != byRow.RowCount() {
					t.Fatalf("schema %d trial %d: partitions, filter or row count differ", si, trial)
				}
			}
		}
	}
}

// TestAddColumnsRefusesWhatValidateRowRefuses: the checks ValidateRow
// makes row by row are made while a column is striped, with the same
// error, and a refused call — the bad row in the middle of a batch —
// leaves the Writer as it was: also when typed columns before the bad
// one have been striped into the typed leaf buffers already.
func TestAddColumnsRefusesWhatValidateRowRefuses(t *testing.T) {
	flat := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "n", Kind: schema.KindInt64, Mode: schema.Nullable},
	}}
	required := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "n", Kind: schema.KindInt64, Mode: schema.Required},
	}}
	wide := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "n", Kind: schema.KindInt64, Mode: schema.Nullable},
		{Name: "x", Kind: schema.KindFloat64, Mode: schema.Nullable},
	}}
	doc := dremelSchema()
	good := map[*schema.Schema]schema.Row{
		flat:     schema.NewRow(schema.String("a"), schema.Int64(1)),
		required: schema.NewRow(schema.String("a"), schema.Int64(1)),
		wide:     schema.NewRow(schema.String("a"), schema.Int64(1), schema.Float64(0.5)),
		doc:      dremelRows()[0],
	}
	name := func(code schema.Value, country schema.Value) schema.Value {
		return schema.List(schema.Struct(schema.List(schema.Struct(code, country)), schema.Null()))
	}
	for _, tc := range []struct {
		name string
		s    *schema.Schema
		bad  schema.Row
	}{
		{"wrong kind in a flat column", flat, schema.NewRow(schema.String("a"), schema.String("one"))},
		{"NULL in a Required column", flat, schema.NewRow(schema.Null(), schema.Int64(1))},
		{"list in a flat column", flat, schema.NewRow(schema.String("a"), schema.List(schema.Int64(1)))},
		{"more values than fields", flat, schema.NewRow(schema.String("a"), schema.Int64(1), schema.Int64(2))},
		{"row ends before a Required field", required, schema.NewRow(schema.String("a"))},
		{"wrong kind in a later column", wide, schema.NewRow(schema.String("b"), schema.Int64(2), schema.String("x"))},
		{"REQUIRED NULL in a later column", required, schema.NewRow(schema.String("b"), schema.Null())},
		{"change row without a primary key", flat, schema.NewRow(schema.String("a"), schema.Int64(1)).WithChange(schema.ChangeDelete)},
		{"scalar where a list belongs", doc, schema.NewRow(schema.Int64(1), schema.Null(), schema.Int64(2))},
		{"NULL list element", doc, schema.NewRow(schema.Int64(1), schema.Null(), schema.List(schema.Null()))},
		{"wrong kind in a list element", doc, schema.NewRow(schema.Int64(1), schema.Null(), schema.List(schema.Int64(2)))},
		{"wrong kind in a nested leaf", doc, schema.NewRow(schema.Int64(1), schema.Null(), name(schema.Int64(7), schema.Null()))},
		{"NULL in a nested Required leaf", doc, schema.NewRow(schema.Int64(1), schema.Null(), name(schema.Null(), schema.Null()))},
		{"struct with too many values", doc, schema.NewRow(schema.Int64(1), schema.Struct(schema.List(), schema.List(), schema.List()), schema.List())},
		{"struct ends before a Required field", doc, schema.NewRow(schema.Int64(1), schema.Null(), schema.List(schema.Struct(schema.List(schema.Struct()), schema.Null())))},
		{"list where a struct belongs", doc, schema.NewRow(schema.Int64(1), schema.List(), schema.List())},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verr := tc.s.ValidateRow(tc.bad)
			if verr == nil {
				t.Fatal("ValidateRow accepts the row: not a refusal to compare with")
			}
			ok := good[tc.s]
			w, clean := NewWriter(tc.s), NewWriter(tc.s)
			for _, wr := range []*Writer{w, clean} {
				if err := wr.Add(ok, 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Add(tc.bad, 2); err == nil || err.Error() != verr.Error() {
				t.Errorf("Add: %v\nValidateRow: %v", err, verr)
			}
			if len(tc.bad.Values) <= len(tc.s.Fields) {
				cols, seqs, changes := columnsOf(tc.s, []schema.Row{ok, tc.bad, ok})
				cols = cols[:len(tc.bad.Values)] // a short row: rows that carry fewer columns
				if tc.s != doc && !cols[0].Typed() {
					t.Fatal("the first column is not typed: the typed stripe is not exercised")
				}
				if err := w.AddColumns(cols, seqs, changes, []int32{0, 1, 2}); err == nil || err.Error() != verr.Error() {
					t.Errorf("AddColumns: %v\nValidateRow: %v", err, verr)
				}
			}
			got, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			want, err := clean.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Error("a refused call changed the file")
			}
		})
	}
}
