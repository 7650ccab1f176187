package readsession

import (
	"errors"
	"testing"

	"vortex/internal/schema"
	"vortex/internal/wire"
)

func frameSchema() *schema.Schema {
	return &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Nullable},
		{Name: "n", Kind: schema.KindInt64, Mode: schema.Nullable},
	}}
}

// frameOf encodes a three-row frame with the given identity columns and
// a data column k.
func frameOf(seq, arity, change []schema.Value) []byte {
	return wire.EncodeRecordBatch(&wire.RecordBatch{NumRows: 3, Cols: []wire.BatchColumn{
		{Name: colSeq, Values: seq},
		{Name: colArity, Values: arity},
		{Name: colChange, Values: change},
		{Name: "k", Values: []schema.Value{schema.String("a"), schema.String("b"), schema.String("c")}},
	}})
}

func ints(xs ...int64) []schema.Value {
	out := make([]schema.Value, len(xs))
	for i, x := range xs {
		out[i] = schema.Int64(x)
	}
	return out
}

// TestDecodeBatchFrameRefusesHostileIdentity: a frame whose identity
// columns a server would never write — a change type past ChangeDelete,
// a STRING sequence, a NULL arity — is refused as corrupt, not read as
// change 9, seq 0 or a row without values.
func TestDecodeBatchFrameRefusesHostileIdentity(t *testing.T) {
	sc := frameSchema()
	if _, err := decodeBatchFrame(frameOf(ints(10, 11, 12), ints(2, 1, 2), ints(0, 1, 2)), sc); err != nil {
		t.Fatalf("well-formed frame refused: %v", err)
	}
	for name, frame := range map[string][]byte{
		"change 9": frameOf(ints(10, 11, 12), ints(2, 2, 2), ints(0, 9, 0)),
		"STRING seq": frameOf([]schema.Value{schema.String("a"), schema.String("b"), schema.String("c")},
			ints(2, 2, 2), ints(0, 0, 0)),
		"NULL arity": frameOf(ints(10, 11, 12), []schema.Value{schema.Int64(2), schema.Null(), schema.Int64(2)}, ints(0, 0, 0)),
	} {
		if _, err := decodeBatchFrame(frame, sc); !errors.Is(err, wire.ErrBatchCorrupt) {
			t.Errorf("%s: err = %v, want ErrBatchCorrupt", name, err)
		}
	}
}

// FuzzDecodeBatchFrame: decoding any bytes never panics, refuses with
// ErrBatchCorrupt, and a frame it accepts has an integer sequence,
// arity within the schema and a change type schema.ChangeType names for
// every row, data columns only in Rec, and rows Rows can reassemble.
func FuzzDecodeBatchFrame(f *testing.F) {
	f.Add(frameOf(ints(10, 11, 12), ints(2, 1, 2), ints(0, 1, 2)))
	f.Add(frameOf(ints(10, 11, 12), ints(2, 2, 2), ints(0, 9, 0)))
	f.Add(frameOf(ints(10, 11, 12), []schema.Value{schema.Int64(2), schema.Null(), schema.Int64(2)}, ints(0, 0, 0)))
	f.Add(wire.EncodeVectors([]wire.Vector{
		wire.IntVector(colSeq, schema.KindInt64, []int64{5, 6, 7, 8}),
		wire.IntRuns(colArity, []int32{2, 2, 0, 1}),
		wire.IntRuns(colChange, []byte{0, 0, 2, 1}),
		wire.IntVector("n", schema.KindInt64, []int64{1, 2, 3, 4}),
	}, wire.Selection{0, 2, 3}))
	sc := frameSchema()
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := decodeBatchFrame(data, sc)
		if err != nil {
			if !errors.Is(err, wire.ErrBatchCorrupt) {
				t.Fatalf("refused without ErrBatchCorrupt: %v", err)
			}
			return
		}
		n := b.NumRows()
		if len(b.seqs) != n || len(b.arity) != n || len(b.changes) != n {
			t.Fatalf("%d rows, identity columns of %d, %d and %d", n, len(b.seqs), len(b.arity), len(b.changes))
		}
		for i := range n {
			if b.arity[i] < 0 || b.arity[i] > int64(len(sc.Fields)) || b.changes[i] < 0 || b.changes[i] > int64(schema.ChangeDelete) {
				t.Fatalf("row %d: arity %d, change %d", i, b.arity[i], b.changes[i])
			}
		}
		for _, c := range b.Rec.Cols {
			if c.Name == colSeq || c.Name == colArity || c.Name == colChange || len(c.Values) != n {
				t.Fatalf("Rec column %q with %d values in a %d-row batch", c.Name, len(c.Values), n)
			}
		}
		for i, r := range b.Rows() {
			if len(r.Row.Values) != int(b.arity[i]) || r.Row.Change != schema.ChangeType(b.changes[i]) || r.Seq != b.seqs[i] {
				t.Fatalf("row %d = %+v, want arity %d, change %d, seq %d", i, r, b.arity[i], b.changes[i], b.seqs[i])
			}
		}
	})
}
