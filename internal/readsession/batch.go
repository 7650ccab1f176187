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

// decodeBatchFrame decodes one record-batch frame and validates its
// identity columns, so the row adapter can reassemble stamped rows
// later without re-checking. The data columns stay in the decoded
// batch untouched — a consumer working batch-natively never pays for
// per-row reassembly at all.
func decodeBatchFrame(data []byte, sc *schema.Schema) (*wire.RecordBatch, error) {
	b, n, err := wire.DecodeRecordBatch(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", wire.ErrBatchCorrupt, len(data)-n)
	}
	cols := batchColumns(b)
	if cols[colSeq] == nil {
		return nil, fmt.Errorf("%w: missing %s column", wire.ErrBatchCorrupt, colSeq)
	}
	arity := cols[colArity]
	if arity == nil {
		return nil, fmt.Errorf("%w: missing %s column", wire.ErrBatchCorrupt, colArity)
	}
	for i := 0; i < b.NumRows; i++ {
		if na := int(arity[i].AsInt64()); na < 0 || na > len(sc.Fields) {
			return nil, fmt.Errorf("%w: row arity %d", wire.ErrBatchCorrupt, na)
		}
	}
	return b, nil
}

func batchColumns(b *wire.RecordBatch) map[string][]schema.Value {
	cols := make(map[string][]schema.Value, len(b.Cols))
	for _, c := range b.Cols {
		cols[c.Name] = c.Values
	}
	return cols
}

// stampedFromBatch reassembles stamped rows from a validated frame.
// Columns are matched to schema fields by name; fields absent from the
// frame (projected away) read as NULL up to each row's recorded arity.
func stampedFromBatch(b *wire.RecordBatch, sc *schema.Schema) []rowenc.Stamped {
	cols := batchColumns(b)
	seqs := cols[colSeq]
	arity := cols[colArity]
	change := cols[colChange]
	out := make([]rowenc.Stamped, b.NumRows)
	for i := range out {
		na := int(arity[i].AsInt64())
		vals := make([]schema.Value, na)
		for fi := 0; fi < na; fi++ {
			if cv, ok := cols[sc.Fields[fi].Name]; ok {
				vals[fi] = cv[i]
			} else {
				vals[fi] = schema.Null()
			}
		}
		row := schema.Row{Values: vals, Change: schema.ChangeType(0)}
		if change != nil {
			row.Change = schema.ChangeType(change[i].AsInt64())
		}
		out[i] = rowenc.Stamped{Row: row, Seq: seqs[i].AsInt64()}
	}
	return out
}
