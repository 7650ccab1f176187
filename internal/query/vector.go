// Batch-native leaf execution: every SELECT consumes the ColBatches
// that ScanBatch hands over and tracks survivors in each batch's
// selection vector. `_CHANGE_TYPE` resolution narrows the selections
// first, the WHERE clause next — a conjunct that reads one column is
// decided on that column's vector alone, in code space (once per
// dictionary entry or run) where a ROS fragment stored it DICT or RLE —
// and values materialize only for residual conjuncts and for output
// (late materialization).
package query

import (
	"vortex/internal/client"
	"vortex/internal/dml"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/wire"
)

// VecPredicate is a WHERE clause compiled for batch evaluation.
type VecPredicate struct {
	terms []client.Conjunct
}

// CompileVecPredicate splits where into AND-conjuncts and classifies
// each by the single flat column it reads, if any. The split is sound
// under three-valued logic: `a AND b` is truthy exactly when both
// operands are, so filtering conjunct by conjunct keeps the same rows
// evaluating the whole clause per row keeps. A nil where compiles to
// the predicate that keeps everything.
func CompileVecPredicate(where sql.Expr) *VecPredicate {
	p := &VecPredicate{}
	var split func(e sql.Expr)
	split = func(e sql.Expr) {
		if b, ok := e.(*sql.Binary); ok && b.Op == sql.OpAnd {
			split(b.L)
			split(b.R)
			return
		}
		p.terms = append(p.terms, client.Conjunct{
			Field: soleFlatColumn(e),
			Keep: func(row schema.Row) (bool, error) {
				v, err := sql.Eval(e, row)
				return err == nil && sql.Truthy(v), err
			},
			Cmp: comparisonOf(e),
		})
	}
	if where != nil {
		split(where)
	}
	return p
}

// cmpOps maps the SQL comparison operators to the wire's, each with the
// operator that holds when its operands swap sides.
var cmpOps = map[sql.BinOp][2]wire.CmpOp{
	sql.OpEq: {wire.CmpEq, wire.CmpEq},
	sql.OpNe: {wire.CmpNe, wire.CmpNe},
	sql.OpLt: {wire.CmpLt, wire.CmpGt},
	sql.OpLe: {wire.CmpLe, wire.CmpGe},
	sql.OpGt: {wire.CmpGt, wire.CmpLt},
	sql.OpGe: {wire.CmpGe, wire.CmpLe},
}

// comparisonOf returns e as a comparison of a flat column with a
// non-NULL literal, on either side, or nil when e is not one.
func comparisonOf(e sql.Expr) *wire.Comparison {
	b, ok := e.(*sql.Binary)
	if !ok {
		return nil
	}
	ops, ok := cmpOps[b.Op]
	if !ok {
		return nil
	}
	col, lit, swapped := b.L, b.R, 0
	if _, isLit := col.(*sql.Literal); isLit {
		col, lit, swapped = b.R, b.L, 1
	}
	ref, ok := col.(*sql.ColumnRef)
	l, isLit := lit.(*sql.Literal)
	if !ok || !isLit || len(ref.Indexes) != 1 || l.Value.IsNull() {
		return nil
	}
	return &wire.Comparison{Op: ops[swapped], Lit: l.Value}
}

// soleFlatColumn returns the top-level field index when every column
// reference in e is the same flat (non-nested) column, else -1.
func soleFlatColumn(e sql.Expr) int {
	idx := -1
	ok := true
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.ColumnRef:
			if len(x.Indexes) != 1 || (idx >= 0 && idx != x.Indexes[0]) {
				ok = false
				return
			}
			idx = x.Indexes[0]
		case *sql.Binary:
			walk(x.L)
			walk(x.R)
		case *sql.Not:
			walk(x.E)
		case *sql.IsNull:
			walk(x.E)
		case *sql.DateOf:
			walk(x.E)
		case *sql.Aggregate:
			ok = false // aggregates cannot run per row
		}
	}
	walk(e)
	if !ok || idx < 0 {
		return -1
	}
	return idx
}

// Apply returns the visible rows of b that satisfy the predicate.
func (p *VecPredicate) Apply(b *client.ColBatch) (wire.Selection, wire.FilterStats, error) {
	return b.Narrow(b.Sel, p.terms)
}

// resolveBatches applies `_CHANGE_TYPE` replacement semantics across
// the batches of a primary-keyed table's scan, narrowing each batch's
// selection to the rows that survive. It runs before the predicate: a
// filter applied first could hide the UPSERT or DELETE that kills an
// older row which still matches.
func resolveBatches(sc *schema.Schema, batches []*client.ColBatch) {
	if len(sc.PrimaryKey) == 0 {
		return
	}
	var changes []dml.Change
	var rows []int32
	for _, b := range batches {
		for cur := b.Cursor(b.Sel); cur.Next(); {
			changes = append(changes, dml.ChangeOf(sc, cur.Seq(), cur.Row()))
			rows = append(rows, cur.Index())
		}
	}
	dead := dml.Replay(changes, true)
	k := 0
	for _, b := range batches {
		n := b.NumVisible()
		sel := make(wire.Selection, 0, n)
		for _, i := range rows[k : k+n] {
			if !dead[k] {
				sel = append(sel, i)
			}
			k++
		}
		b.Sel = sel
	}
}

// rowsOf materializes the selected rows of every batch.
func rowsOf(batches []*client.ColBatch) []schema.Row {
	var rows []schema.Row
	for _, b := range batches {
		for cur := b.Cursor(b.Sel); cur.Next(); {
			rows = append(rows, cur.Retain())
		}
	}
	return rows
}

// aggregateBatches aggregates with one shard per leaf batch.
func (e *Engine) aggregateBatches(st *sql.SelectStmt, batches []*client.ColBatch, res *Result) (*Result, error) {
	return e.aggregate(st, len(batches), func(i int, visit func(schema.Row) error) error {
		for cur := batches[i].Cursor(batches[i].Sel); cur.Next(); {
			if err := visit(cur.Row()); err != nil {
				return err
			}
		}
		return nil
	}, res)
}

// directEmitOK reports whether the select list can stream straight
// from column vectors: star, or flat column references only.
func directEmitOK(st *sql.SelectStmt) bool {
	if st.Star {
		return true
	}
	for _, it := range st.Items {
		ref, ok := it.Expr.(*sql.ColumnRef)
		if !ok || len(ref.Indexes) != 1 {
			return false
		}
	}
	return true
}

// emitDirect streams the selected rows out as record batches, one per
// non-empty leaf batch, gathering each output column through the
// selection vector — late materialization's last step.
func emitDirect(st *sql.SelectStmt, sc *schema.Schema, batches []*client.ColBatch, res *Result) (*Result, error) {
	type outCol struct {
		name string
		idx  int // top-level field index
	}
	var outs []outCol
	if st.Star {
		for fi, f := range sc.Fields {
			outs = append(outs, outCol{name: f.Name, idx: fi})
		}
	} else {
		for _, it := range st.Items {
			outs = append(outs, outCol{name: itemName(it), idx: it.Expr.(*sql.ColumnRef).Indexes[0]})
		}
	}
	for _, o := range outs {
		res.Columns = append(res.Columns, o.name)
	}

	remaining := int64(-1)
	if st.Limit >= 0 {
		remaining = st.Limit
	}
	res.batches = []*wire.RecordBatch{}
	for _, b := range batches {
		if remaining == 0 {
			break
		}
		n := b.NumVisible()
		if n == 0 {
			continue
		}
		sel := b.Sel
		if remaining >= 0 && int64(n) > remaining {
			n = int(remaining)
			if sel == nil {
				sel = wire.SelectAll(n)
			} else {
				sel = sel[:n]
			}
		}
		cols, vsel := b.Vectors(sel)
		byField := make(map[int]*wire.Vector, len(cols))
		for k := range cols {
			byField[b.ColIdx[k]] = &cols[k]
		}
		rb := &wire.RecordBatch{NumRows: n}
		for _, o := range outs {
			var vals []schema.Value
			if vec := byField[o.idx]; vec != nil {
				vals = vec.Gather(vsel)
			} else {
				vals = make([]schema.Value, n)
				for k := range vals {
					vals[k] = schema.Null()
				}
			}
			rb.Cols = append(rb.Cols, wire.BatchColumn{Name: o.name, Values: vals})
		}
		res.batches = append(res.batches, rb)
		if remaining >= 0 {
			remaining -= int64(n)
		}
	}
	return res, nil
}
