package query

import (
	"context"
	"strings"

	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/truetime"
)

// JoinKey renders a row's equi-join key under the given per-side key
// refs. ok is false when any key column is NULL — NULL never joins
// (SQL inner-join semantics), and the same rule keeps the symmetric
// hash-join index in matview free of NULL buckets. The rendering is the
// same NUL-joined value encoding GroupKeyOf uses, so join keys and
// group keys hash compatibly.
func JoinKey(refs []*sql.ColumnRef, row schema.Row) (string, bool) {
	var b strings.Builder
	for _, r := range refs {
		v := r.FieldValue(row)
		if v.IsNull() {
			return "", false
		}
		b.WriteString(v.String())
		b.WriteByte(0)
	}
	return b.String(), true
}

// JoinRow concatenates a left and right base row into the joined row
// space ResolveJoin binds references into (left.Values ++ right.Values).
func JoinRow(left, right schema.Row, leftArity int) schema.Row {
	vals := make([]schema.Value, 0, leftArity+len(right.Values))
	vals = append(vals, left.Values...)
	for i := len(left.Values); i < leftArity; i++ {
		vals = append(vals, schema.Null())
	}
	vals = append(vals, right.Values...)
	return schema.Row{Values: vals}
}

// HashJoinRows is the one-shot equi-join kernel: it builds a hash table
// over the right rows and probes it with the left rows, emitting
// concatenated joined rows. The snapshot join operator runs on it; the
// matview maintainer joins incrementally instead (one symmetric index
// per side, built from JoinKey and JoinRow). Output order is
// left-major (probe order), deterministic for deterministic inputs.
func HashJoinRows(leftRows, rightRows []schema.Row, j *sql.JoinClause, leftArity int) []schema.Row {
	index := make(map[string][]schema.Row, len(rightRows))
	for _, r := range rightRows {
		if key, ok := JoinKey(j.RightKeys, r); ok {
			index[key] = append(index[key], r)
		}
	}
	var out []schema.Row
	for _, l := range leftRows {
		key, ok := JoinKey(j.LeftKeys, l)
		if !ok {
			continue
		}
		for _, r := range index[key] {
			out = append(out, JoinRow(l, r, leftArity))
		}
	}
	return out
}

// execSelectJoin executes a two-table equi-join SELECT: both sides are
// scanned at the same pinned snapshot (the left plan's resolved
// timestamp pins the right scan), change-resolved when primary-keyed,
// hash-joined, then fed through the filter/aggregate/projection stages
// over the concatenated row space. The join re-materializes rows, so
// both sides decode every surviving row.
func (e *Engine) execSelectJoin(ctx context.Context, st *sql.SelectStmt, ts truetime.Timestamp) (*Result, error) {
	leftSc, err := e.c.GetSchema(ctx, meta.TableID(st.Table))
	if err != nil {
		return nil, err
	}
	rightSc, err := e.c.GetSchema(ctx, meta.TableID(st.Join.Table))
	if err != nil {
		return nil, err
	}
	if err := sql.ResolveJoin(st, leftSc, rightSc); err != nil {
		return nil, err
	}
	res := &Result{}
	// Join scans project every column: the WHERE clause binds into the
	// concatenated row space, so per-side projections would have to be
	// re-derived from resolved offsets; full-width scans keep the
	// operator simple and correct (left-side change resolution needs the
	// PK columns regardless).
	left, err := e.scanTableBatches(ctx, meta.TableID(st.Table), ts, nil, nil, &res.Stats)
	if err != nil {
		return nil, err
	}
	right, err := e.scanTableBatches(ctx, meta.TableID(st.Join.Table), res.Stats.SnapshotTS, nil, nil, &res.Stats)
	if err != nil {
		return nil, err
	}
	resolveBatches(leftSc, left)
	resolveBatches(rightSc, right)
	joined := HashJoinRows(rowsOf(left), rowsOf(right), st.Join, len(leftSc.Fields))

	var rows []schema.Row
	for _, row := range joined {
		if st.Where != nil {
			v, err := sql.Eval(st.Where, row)
			if err != nil {
				return nil, err
			}
			if !sql.Truthy(v) {
				continue
			}
		}
		rows = append(rows, row)
	}

	joinedSc := &schema.Schema{Fields: sql.JoinedFields(leftSc, rightSc)}
	if hasAggregates(st) {
		// The joined rows have no leaf batches to shard by: cut them into
		// contiguous chunks instead.
		shards := e.cfg.Shards
		if shards > len(rows) {
			shards = 1
		}
		chunk := (len(rows) + shards - 1) / shards
		return e.aggregate(st, shards, func(sh int, visit func(schema.Row) error) error {
			for _, row := range rows[min(sh*chunk, len(rows)):min(sh*chunk+chunk, len(rows))] {
				if err := visit(row); err != nil {
					return err
				}
			}
			return nil
		}, res)
	}
	return e.project(st, joinedSc, rows, res)
}
