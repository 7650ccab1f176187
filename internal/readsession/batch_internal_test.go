package readsession

import (
	"encoding/binary"
	"errors"
	"testing"

	"vortex/internal/blockenc"
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

// rawColumn is one column of a frame built by hand: its name, encoding
// byte and payload, written as they are.
type rawColumn struct {
	name    string
	enc     byte
	payload []byte
}

// rawFrame frames columns of rows rows at the current frame version,
// with a valid CRC, whatever their payloads hold.
func rawFrame(rows int, cols ...rawColumn) []byte {
	f := binary.LittleEndian.AppendUint32(nil, 0x56585242) // "VXRB"
	f = append(f, 2)
	f = binary.AppendUvarint(f, uint64(rows))
	f = binary.AppendUvarint(f, uint64(len(cols)))
	for _, c := range cols {
		f = binary.AppendUvarint(f, uint64(len(c.name)))
		f = append(f, c.name...)
		f = append(f, c.enc)
		f = binary.AppendUvarint(f, uint64(len(c.payload)))
		f = append(f, c.payload...)
	}
	return binary.LittleEndian.AppendUint32(f, blockenc.Checksum(f))
}

// typedInts is the TYPED payload of INT64 rows, NULL where valid is 0.
func typedInts(valid byte, ns ...int64) []byte {
	p := []byte{byte(schema.KindInt64), 0}
	if valid != 0xff {
		p = append(p[:1], 1, valid)
	}
	for _, n := range ns {
		p = binary.LittleEndian.AppendUint64(p, uint64(n))
	}
	return p
}

// hostileTypedFrames are frames whose identity or data columns are
// TYPED and wrong: as a column (a BOOL byte of 2, a string offset past
// the body, a value at a NULL row) or as identity (a NULL __seq, a
// change type of 9, an arity of another kind).
func hostileTypedFrames() []namedFrame {
	seq, arity, change := rawColumn{colSeq, wire.BatchEncTyped, typedInts(0xff, 10, 11)},
		rawColumn{colArity, wire.BatchEncTyped, typedInts(0xff, 2, 2)},
		rawColumn{colChange, wire.BatchEncTyped, typedInts(0xff, 0, 0)}
	k := func(payload ...byte) rawColumn { return rawColumn{"k", wire.BatchEncTyped, payload} }
	return []namedFrame{
		{"BOOL byte 2", rawFrame(2, seq, arity, change, k(byte(schema.KindBool), 0, 1, 2))},
		{"offset past the body", rawFrame(2, seq, arity, change, k(byte(schema.KindString), 0, 1, 0, 0, 0, 5, 0, 0, 0, 'a', 'b'))},
		{"a value at a NULL row", rawFrame(2, rawColumn{colSeq, wire.BatchEncTyped, typedInts(0x01, 10, 11)}, arity, change)},
		{"NULL __seq", rawFrame(2, rawColumn{colSeq, wire.BatchEncTyped, typedInts(0x01, 10, 0)}, arity, change)},
		{"change 9", rawFrame(2, seq, arity, rawColumn{colChange, wire.BatchEncTyped, typedInts(0xff, 0, 9)})},
		{"TIMESTAMP __arity", rawFrame(2, seq, rawColumn{colArity, wire.BatchEncTyped, append([]byte{byte(schema.KindTimestamp)}, typedInts(0xff, 2, 2)[1:]...)}, change)},
		{"validity past the rows", rawFrame(2, rawColumn{colSeq, wire.BatchEncTyped, typedInts(0x07, 10, 11)}, arity, change)},
		{"a body a row too short", rawFrame(2, rawColumn{colSeq, wire.BatchEncTyped, typedInts(0xff, 10)}, arity, change)},
	}
}

type namedFrame struct {
	name  string
	frame []byte
}

// TestDecodeBatchFrameRefusesHostileTyped: a frame whose TYPED columns a
// server would never write is refused as corrupt; the same frame with
// its columns well-formed is read.
func TestDecodeBatchFrameRefusesHostileTyped(t *testing.T) {
	sc := frameSchema()
	good := rawFrame(2, rawColumn{colSeq, wire.BatchEncTyped, typedInts(0xff, 10, 11)},
		rawColumn{colArity, wire.BatchEncTyped, typedInts(0xff, 2, 1)},
		rawColumn{colChange, wire.BatchEncTyped, typedInts(0xff, 0, 2)},
		rawColumn{"n", wire.BatchEncTyped, typedInts(0x01, 7, 0)})
	if b, err := decodeBatchFrame(good, sc); err != nil || b.NumRows() != 2 {
		t.Fatalf("well-formed TYPED frame: %v", err)
	}
	for _, h := range hostileTypedFrames() {
		if _, err := decodeBatchFrame(h.frame, sc); !errors.Is(err, wire.ErrBatchCorrupt) {
			t.Errorf("%s: err = %v, want ErrBatchCorrupt", h.name, err)
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
	for _, h := range hostileTypedFrames() {
		f.Add(h.frame)
	}
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
