package query

import (
	"fmt"
	"slices"
	"strings"

	"vortex/internal/schema"
	"vortex/internal/sql"
)

// DeltaAgg is the engine's one aggregate accumulator: it accumulates
// COUNT/SUM/MIN/MAX/AVG under insertions (delta +1) and retractions
// (delta -1), and merges with another partial of the same aggregate.
// A snapshot GROUP BY folds each row in with +1 per leaf shard and
// merges the shard partials — the two-stage aggregation DAG of Dremel
// (§3.1); incremental view maintenance applies the retractions and
// insertions a `_CHANGE_TYPE` stream implies. For any multiset of
// surviving inputs its Result is the aggregate over those inputs:
//
//   - sums track per-kind contribution counts, so the result kind
//     (FLOAT64 over NUMERIC over INT64) demotes when the last
//     FLOAT64/NUMERIC contribution is retracted — a promote-only kind
//     would freeze a view's column type on a value that no longer
//     exists;
//   - MIN/MAX keep a counted multiset of values, so retracting the
//     current extreme falls back to the next one instead of needing a
//     rescan of the base table.
type DeltaAgg struct {
	fn    sql.AggFunc
	count int64 // non-null contributions; rows for COUNT(*)
	sumI  int64
	sumN  int64 // NUMERIC, scaled
	sumF  float64
	nInt  int64
	nNum  int64
	nFlt  int64
	vals  map[string]*deltaVal // MIN/MAX counted multiset
}

type deltaVal struct {
	v schema.Value
	n int64
}

// NewDeltaAgg returns an empty retractable accumulator.
func NewDeltaAgg(fn sql.AggFunc) *DeltaAgg {
	d := &DeltaAgg{fn: fn}
	if fn == sql.AggMin || fn == sql.AggMax {
		d.vals = make(map[string]*deltaVal)
	}
	return d
}

// Apply folds one argument value in (delta = +1) or out (delta = -1).
// isStar marks COUNT(*) (v ignored); NULL arguments never contribute.
// The value is copied, so v may come from a reused row buffer.
func (d *DeltaAgg) Apply(v schema.Value, isStar bool, delta int64) error {
	if isStar {
		d.count += delta
		return nil
	}
	if v.IsNull() {
		return nil
	}
	d.count += delta
	switch d.fn {
	case sql.AggCount:
		// counting only
	case sql.AggSum, sql.AggAvg:
		switch v.Kind() {
		case schema.KindInt64:
			d.nInt += delta
			d.sumI += delta * v.AsInt64()
			d.sumF += float64(delta) * float64(v.AsInt64())
			d.sumN += delta * v.AsInt64() * schema.NumericScale
		case schema.KindNumeric:
			d.nNum += delta
			d.sumN += delta * v.AsNumericScaled()
			d.sumF += float64(delta) * v.AsFloat64()
		case schema.KindFloat64:
			d.nFlt += delta
			d.sumF += float64(delta) * v.AsFloat64()
		default:
			return fmt.Errorf("query: %s over %v", d.fn, v.Kind())
		}
	case sql.AggMin, sql.AggMax:
		if !v.Kind().Comparable() {
			return fmt.Errorf("query: %s over %v", d.fn, v.Kind())
		}
		d.addVal(v.String(), v, delta)
	}
	return nil
}

// addVal moves value v's multiplicity in the MIN/MAX multiset by n,
// dropping it once nothing holds it.
func (d *DeltaAgg) addVal(key string, v schema.Value, n int64) {
	e := d.vals[key]
	if e == nil {
		e = &deltaVal{v: v}
		d.vals[key] = e
	}
	e.n += n
	if e.n <= 0 {
		delete(d.vals, key)
	}
}

// Merge adds o, a partial of the same aggregate, into d: the sums, the
// per-kind contribution counts and the MIN/MAX multisets. d then holds
// the aggregate over both partials' inputs; o is left as it was.
func (d *DeltaAgg) Merge(o *DeltaAgg) {
	d.count += o.count
	d.sumI += o.sumI
	d.sumN += o.sumN
	d.sumF += o.sumF
	d.nInt += o.nInt
	d.nNum += o.nNum
	d.nFlt += o.nFlt
	for key, e := range o.vals {
		d.addVal(key, e.v, e.n)
	}
}

// Result renders the current aggregate value over the surviving
// multiset of inputs.
func (d *DeltaAgg) Result() schema.Value {
	switch d.fn {
	case sql.AggCount:
		return schema.Int64(d.count)
	case sql.AggSum:
		if d.count == 0 {
			return schema.Null()
		}
		switch {
		case d.nFlt > 0:
			return schema.Float64(d.sumF)
		case d.nNum > 0:
			return schema.Numeric(d.sumN)
		default:
			return schema.Int64(d.sumI)
		}
	case sql.AggAvg:
		if d.count == 0 {
			return schema.Null()
		}
		return schema.Float64(d.sumF / float64(d.count))
	case sql.AggMin, sql.AggMax:
		var best schema.Value = schema.Null()
		for _, e := range d.vals {
			if best.IsNull() {
				best = e.v
				continue
			}
			c := compareForOrder(e.v, best)
			if (d.fn == sql.AggMin && c < 0) || (d.fn == sql.AggMax && c > 0) {
				best = e.v
			}
		}
		return best
	}
	return schema.Null()
}

// DeltaGroup is one group's retractable accumulators plus its key
// values and a contributing-row count: the group is live while Rows is
// positive, and its view row must be deleted when it drains to zero.
type DeltaGroup struct {
	Keys []schema.Value
	Rows int64
	Aggs []*DeltaAgg
}

// NewDeltaGroup builds an empty group for the statement's aggregate
// items (in select-item order, as AggPlanOf yields them).
func NewDeltaGroup(keys []schema.Value, fns []sql.AggFunc) *DeltaGroup {
	g := &DeltaGroup{Keys: keys}
	for _, fn := range fns {
		g.Aggs = append(g.Aggs, NewDeltaAgg(fn))
	}
	return g
}

// AggPlanItem is one aggregate output of a maintenance plan: its
// function and argument expression, resolved against the defining
// query's row space.
type AggPlanItem struct {
	Fn  sql.AggFunc
	Arg sql.Expr // nil for COUNT(*)
}

// AggPlanOf extracts the resolved aggregate items of a SELECT in
// select-item order — the shape every DeltaGroup of it accumulates.
func AggPlanOf(st *sql.SelectStmt) []AggPlanItem {
	var out []AggPlanItem
	for _, it := range st.Items {
		if ag, ok := it.Expr.(*sql.Aggregate); ok {
			out = append(out, AggPlanItem{Fn: ag.Func, Arg: ag.Arg})
		}
	}
	return out
}

// ApplyDelta folds one source row into the group with the given delta:
// every aggregate item's argument is evaluated against the row and
// applied, and the group's contributing-row count moves with it.
func (g *DeltaGroup) ApplyDelta(items []AggPlanItem, row schema.Row, delta int64) error {
	g.Rows += delta
	for j, it := range items {
		var v schema.Value
		if it.Arg != nil {
			var err error
			v, err = sql.Eval(it.Arg, row)
			if err != nil {
				return err
			}
		}
		if err := g.Aggs[j].Apply(v, it.Arg == nil, delta); err != nil {
			return err
		}
	}
	return nil
}

// Merge adds o, a partial of the same group, into g.
func (g *DeltaGroup) Merge(o *DeltaGroup) {
	g.Rows += o.Rows
	for j, a := range g.Aggs {
		a.Merge(o.Aggs[j])
	}
}

// GroupKeyOf renders a row's GROUP BY key for the statement: the
// grouped values' strings, each NUL-terminated, and the values
// themselves (copied, so row may be a reused buffer). The snapshot
// engine and the matview maintainer share it, so their groups collate
// identically.
func GroupKeyOf(st *sql.SelectStmt, row schema.Row) (string, []schema.Value) {
	if len(st.GroupBy) == 0 {
		return "", nil
	}
	vals := make([]schema.Value, len(st.GroupBy))
	var b strings.Builder
	for i, g := range st.GroupBy {
		vals[i] = g.FieldValue(row)
		b.WriteString(vals[i].String())
		b.WriteByte(0)
	}
	return b.String(), vals
}

// groupPos is the GROUP BY position of the column named name, or -1.
func groupPos(st *sql.SelectStmt, name string) int {
	return slices.IndexFunc(st.GroupBy, func(g *sql.ColumnRef) bool { return g.Name() == name })
}

// Grouping is a resolved grouped SELECT compiled for DeltaGroup state,
// shared by the snapshot engine and matview: how a row folds into its
// group, and how a group renders as a row in select-item order.
type Grouping struct {
	st    *sql.SelectStmt
	items []AggPlanItem
	fns   []sql.AggFunc
	keyAt []int // select item i renders GROUP BY key keyAt[i]; -1 marks an aggregate
}

// NewGrouping compiles st. Every select item must be an aggregate or a
// grouped column.
func NewGrouping(st *sql.SelectStmt) (*Grouping, error) {
	gr := &Grouping{st: st, items: AggPlanOf(st)}
	for _, it := range gr.items {
		gr.fns = append(gr.fns, it.Fn)
	}
	for i, it := range st.Items {
		k := -1
		switch x := it.Expr.(type) {
		case *sql.Aggregate:
		case *sql.ColumnRef:
			if k = groupPos(st, x.Name()); k < 0 {
				return nil, fmt.Errorf("query: %s is neither aggregated nor grouped", x.Name())
			}
		default:
			return nil, fmt.Errorf("query: select item %d must be a column or an aggregate", i)
		}
		gr.keyAt = append(gr.keyAt, k)
	}
	return gr, nil
}

// Apply folds row into its group of groups with the given delta,
// making the group on first sight, and returns the group's key.
func (gr *Grouping) Apply(groups map[string]*DeltaGroup, row schema.Row, delta int64) (string, error) {
	key, vals := GroupKeyOf(gr.st, row)
	g := groups[key]
	if g == nil {
		g = NewDeltaGroup(vals, gr.fns)
		groups[key] = g
	}
	return key, g.ApplyDelta(gr.items, row, delta)
}

// Row renders g in select-item order. With aggs false the aggregate
// columns are NULL: a view row's retraction, which only its key
// columns address.
func (gr *Grouping) Row(g *DeltaGroup, aggs bool) []schema.Value {
	out := make([]schema.Value, len(gr.keyAt))
	j := 0
	for i, k := range gr.keyAt {
		if k >= 0 {
			out[i] = g.Keys[k]
			continue
		}
		out[i] = schema.Null()
		if aggs {
			out[i] = g.Aggs[j].Result()
		}
		j++
	}
	return out
}
