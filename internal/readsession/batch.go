// Package readsession is the Storage-Read-API-style subsystem: a client
// opens a session against a table pinned at a TrueTime snapshot and
// receives N shard handles, each a resumable stream of columnar record
// batches served over bi-di RPC with byte-based flow control. Sessions
// plan shards from the same fragment assignments queries scan, prune
// them through Big Metadata (§7.2), push predicates and projections
// down to the leaf scans, support dynamic shard splitting (a straggler
// hands its unserved tail to an idle reader) and offset-checkpointed
// resume, and hold an SMS snapshot lease so GC cannot delete fragments
// out from under an open session.
package readsession

import (
	"fmt"
	"math"
	"slices"

	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

// Reserved batch column names carrying row identity alongside the data
// columns: the storage sequence (TrueTime-derived, the exactly-once
// accounting key of §6.3), the row's original value arity (so schema
// evolution round-trips byte-identically), and the DML change type.
const (
	colSeq    = "__seq"
	colArity  = "__arity"
	colChange = "__change"
)

// decodeBatchFrame decodes one record-batch frame into a Batch: the
// identity columns as integers, checked so the row adapter can
// reassemble stamped rows later without re-checking, and the data
// columns materialized into Rec. Every identity entry must be a
// non-NULL INT64, each arity within the schema and each change type one
// schema.ChangeType names. A consumer working batch-natively never pays
// for per-row reassembly at all.
func decodeBatchFrame(data []byte, sc *schema.Schema) (*Batch, error) {
	cols, rows, n, err := wire.DecodeVectors(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", wire.ErrBatchCorrupt, len(data)-n)
	}
	b := &Batch{Rec: &wire.RecordBatch{NumRows: rows, Cols: make([]wire.BatchColumn, 0, len(cols))}, sc: sc}
	ids := [...]identityColumn{
		{name: colSeq, into: &b.seqs, lo: math.MinInt64, hi: math.MaxInt64},
		{name: colArity, into: &b.arity, hi: int64(len(sc.Fields))},
		{name: colChange, into: &b.changes, hi: int64(schema.ChangeDelete)},
	}
	for i := range cols {
		v := &cols[i]
		k := slices.IndexFunc(ids[:], func(id identityColumn) bool { return id.name == v.Name })
		if k < 0 {
			b.Rec.Cols = append(b.Rec.Cols, wire.BatchColumn{Name: v.Name, Values: v.Gather(nil)})
			continue
		}
		id := &ids[k]
		if *id.into, err = identityInts(v, rows); err != nil {
			return nil, err
		}
		for _, x := range *id.into {
			if x < id.lo || x > id.hi {
				return nil, fmt.Errorf("%w: %s entry %d", wire.ErrBatchCorrupt, v.Name, x)
			}
		}
		id.seen = true
	}
	for _, id := range ids {
		if !id.seen {
			return nil, fmt.Errorf("%w: missing %s column", wire.ErrBatchCorrupt, id.name)
		}
	}
	return b, nil
}

// identityColumn is where decodeBatchFrame keeps one identity column,
// and the values its entries may hold.
type identityColumn struct {
	name   string
	into   *[]int64
	lo, hi int64
	seen   bool
}

// identityInts returns an identity column's rows rows as integers: a
// typed INT64 column's own, runs expanded to integers, and anything
// else checked value by value. A NULL or a value of another kind is
// ErrBatchCorrupt.
func identityInts(v *wire.Vector, rows int) ([]int64, error) {
	bad := func(entry any) error {
		return fmt.Errorf("%w: %s entry %v", wire.ErrBatchCorrupt, v.Name, entry)
	}
	switch {
	case v.Enc == wire.BatchEncPlain && v.Kind == schema.KindInt64:
		for i := range v.Ints {
			if !v.Valid.Has(i) {
				return nil, bad(schema.Null())
			}
		}
		return v.Ints, nil
	case v.Typed():
		return nil, bad(v.Kind)
	}
	out := make([]int64, 0, rows)
	if v.Enc == wire.BatchEncRLE {
		for _, r := range v.Runs {
			if !isInt64(r.Value) {
				return nil, bad(r.Value)
			}
			for x, k := r.Value.AsInt64(), int32(0); k < r.Len; k++ {
				out = append(out, x)
			}
		}
		return out, nil
	}
	for _, val := range v.Gather(nil) {
		if !isInt64(val) {
			return nil, bad(val)
		}
		out = append(out, val.AsInt64())
	}
	return out, nil
}

func isInt64(val schema.Value) bool { return !val.IsNull() && val.Kind() == schema.KindInt64 }

// stampedFromBatch reassembles stamped rows from a validated frame.
// Columns are matched to schema fields by name; fields absent from the
// frame (projected away) read as NULL up to each row's recorded arity.
func stampedFromBatch(b *Batch) []rowenc.Stamped {
	cols := make(map[string][]schema.Value, len(b.Rec.Cols))
	for _, c := range b.Rec.Cols {
		cols[c.Name] = c.Values
	}
	out := make([]rowenc.Stamped, b.Rec.NumRows)
	for i := range out {
		na := int(b.arity[i])
		vals := make([]schema.Value, na)
		for fi := 0; fi < na; fi++ {
			if cv, ok := cols[b.sc.Fields[fi].Name]; ok {
				vals[fi] = cv[i]
			} else {
				vals[fi] = schema.Null()
			}
		}
		row := schema.Row{Values: vals, Change: schema.ChangeType(b.changes[i])}
		out[i] = rowenc.Stamped{Row: row, Seq: b.seqs[i]}
	}
	return out
}
