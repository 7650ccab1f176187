package query

import (
	"fmt"
	"sort"
	"strings"

	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/workpool"
)

// aggState is one aggregate accumulator. It is mergeable, so leaf shards
// compute partials and the final stage merges them — the two-stage
// aggregation DAG of Dremel (§3.1).
type aggState struct {
	fn      sql.AggFunc
	count   int64 // COUNT(*) rows, or non-null arguments for COUNT(x)
	nonNull int64
	sumI    int64
	sumN    int64 // NUMERIC, scaled
	sumF    float64
	sumKind schema.Kind
	min     schema.Value
	max     schema.Value
}

func newAggState(fn sql.AggFunc) *aggState {
	return &aggState{fn: fn, min: schema.Null(), max: schema.Null()}
}

func (a *aggState) add(v schema.Value, isStar bool) error {
	if isStar {
		a.count++
		return nil
	}
	if v.IsNull() {
		return nil
	}
	a.count++
	a.nonNull++
	switch a.fn {
	case sql.AggCount:
		// counting only
	case sql.AggSum, sql.AggAvg:
		switch v.Kind() {
		case schema.KindInt64:
			if a.sumKind == schema.KindInvalid {
				a.sumKind = schema.KindInt64
			}
			a.sumI += v.AsInt64()
			a.sumF += float64(v.AsInt64())
			a.sumN += v.AsInt64() * schema.NumericScale
		case schema.KindNumeric:
			if a.sumKind == schema.KindInvalid || a.sumKind == schema.KindInt64 {
				a.sumKind = schema.KindNumeric
			}
			a.sumN += v.AsNumericScaled()
			a.sumF += v.AsFloat64()
		case schema.KindFloat64:
			a.sumKind = schema.KindFloat64
			a.sumF += v.AsFloat64()
		default:
			return fmt.Errorf("query: %s over %v", a.fn, v.Kind())
		}
	case sql.AggMin, sql.AggMax:
		if !v.Kind().Comparable() {
			return fmt.Errorf("query: %s over %v", a.fn, v.Kind())
		}
		if a.min.IsNull() {
			a.min, a.max = v, v
			return nil
		}
		if compareForOrder(v, a.min) < 0 {
			a.min = v
		}
		if compareForOrder(v, a.max) > 0 {
			a.max = v
		}
	}
	return nil
}

func (a *aggState) merge(b *aggState) {
	a.count += b.count
	a.nonNull += b.nonNull
	a.sumI += b.sumI
	a.sumN += b.sumN
	a.sumF += b.sumF
	if b.sumKind > a.sumKind {
		a.sumKind = b.sumKind
	}
	if !b.min.IsNull() && (a.min.IsNull() || compareForOrder(b.min, a.min) < 0) {
		a.min = b.min
	}
	if !b.max.IsNull() && (a.max.IsNull() || compareForOrder(b.max, a.max) > 0) {
		a.max = b.max
	}
}

func (a *aggState) result() schema.Value {
	switch a.fn {
	case sql.AggCount:
		return schema.Int64(a.count)
	case sql.AggSum:
		if a.nonNull == 0 {
			return schema.Null()
		}
		switch a.sumKind {
		case schema.KindInt64:
			return schema.Int64(a.sumI)
		case schema.KindNumeric:
			return schema.Numeric(a.sumN)
		default:
			return schema.Float64(a.sumF)
		}
	case sql.AggAvg:
		if a.nonNull == 0 {
			return schema.Null()
		}
		return schema.Float64(a.sumF / float64(a.nonNull))
	case sql.AggMin:
		return a.min
	case sql.AggMax:
		return a.max
	}
	return schema.Null()
}

// groupState is one group's accumulators plus its key values.
type groupState struct {
	keys []schema.Value
	aggs []*aggState
}

// aggItem is one aggregate select item with its argument expression.
type aggItem struct {
	idx int
	fn  sql.AggFunc
	arg sql.Expr // nil for COUNT(*)
}

func collectAggItems(st *sql.SelectStmt) []aggItem {
	var items []aggItem
	for i, it := range st.Items {
		if ag, ok := it.Expr.(*sql.Aggregate); ok {
			items = append(items, aggItem{idx: i, fn: ag.Func, arg: ag.Arg})
		}
	}
	return items
}

// accumRow folds one row into a partial group map — the leaf half of
// the two-stage DAG. The row may be a reused scratch buffer: every
// value read out of it is copied by value.
func accumRow(st *sql.SelectStmt, items []aggItem, groups map[string]*groupState, row schema.Row) error {
	key, keyVals, err := groupKeyOf(st, row)
	if err != nil {
		return err
	}
	g := groups[key]
	if g == nil {
		g = &groupState{keys: keyVals}
		for _, ai := range items {
			g.aggs = append(g.aggs, newAggState(ai.fn))
		}
		groups[key] = g
	}
	for j, ai := range items {
		var v schema.Value
		if ai.arg != nil {
			var err error
			v, err = sql.Eval(ai.arg, row)
			if err != nil {
				return err
			}
		}
		if err := g.aggs[j].add(v, ai.arg == nil); err != nil {
			return err
		}
	}
	return nil
}

// aggregate runs two-stage grouped aggregation: one partial group map
// per shard, built in parallel (at most Config.Shards at a time), then
// the merge. each feeds shard sh's rows to visit — a leaf batch's
// selected rows on the single-table path, a slice of the joined rows on
// the join path.
func (e *Engine) aggregate(st *sql.SelectStmt, shards int, each func(sh int, visit func(schema.Row) error) error, res *Result) (*Result, error) {
	aggItems := collectAggItems(st)
	partials := make([]map[string]*groupState, shards)
	err := workpool.Run(shards, e.cfg.Shards, func(_, sh int) error {
		groups := make(map[string]*groupState)
		partials[sh] = groups
		return each(sh, func(row schema.Row) error {
			return accumRow(st, aggItems, groups, row)
		})
	})
	if err != nil {
		return nil, err
	}
	return finalizeAgg(st, aggItems, partials, res)
}

// finalizeAgg merges partial group maps and renders the output rows —
// the final stage of the DAG.
func finalizeAgg(st *sql.SelectStmt, aggItems []aggItem, partials []map[string]*groupState, res *Result) (*Result, error) {
	for _, it := range st.Items {
		res.Columns = append(res.Columns, itemName(it))
	}
	// Final stage: merge partials.
	final := make(map[string]*groupState)
	var order []string
	for _, part := range partials {
		for key, g := range part {
			f := final[key]
			if f == nil {
				final[key] = g
				order = append(order, key)
				continue
			}
			for j := range f.aggs {
				f.aggs[j].merge(g.aggs[j])
			}
		}
	}
	// A global aggregate over zero rows still yields one row.
	if len(st.GroupBy) == 0 && len(final) == 0 {
		g := &groupState{}
		for _, ai := range aggItems {
			g.aggs = append(g.aggs, newAggState(ai.fn))
		}
		final[""] = g
		order = append(order, "")
	}
	sort.Strings(order)

	groupIdx := map[string]int{}
	for i, gcol := range st.GroupBy {
		groupIdx[gcol.Name()] = i
	}
	for _, key := range order {
		g := final[key]
		out := make([]schema.Value, len(st.Items))
		ai := 0
		for i, it := range st.Items {
			if _, ok := it.Expr.(*sql.Aggregate); ok {
				out[i] = g.aggs[ai].result()
				ai++
				continue
			}
			ref := it.Expr.(*sql.ColumnRef)
			out[i] = g.keys[groupIdx[ref.Name()]]
		}
		res.rows = append(res.rows, out)
	}
	// ORDER BY over output columns: group keys by name, any item by alias.
	if len(st.OrderBy) > 0 {
		colPos := map[string]int{}
		for i, it := range st.Items {
			if ref, ok := it.Expr.(*sql.ColumnRef); ok {
				colPos[ref.Name()] = i
			}
			if it.Alias != "" {
				colPos[it.Alias] = i
			}
		}
		sort.SliceStable(res.rows, func(i, j int) bool {
			for _, o := range st.OrderBy {
				pos, ok := colPos[o.Column.Name()]
				if !ok {
					continue
				}
				c := compareForOrder(res.rows[i][pos], res.rows[j][pos])
				if c != 0 {
					if o.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
	}
	if st.Limit >= 0 && int64(len(res.rows)) > st.Limit {
		res.rows = res.rows[:st.Limit]
	}
	return res, nil
}

// groupKeyOf renders the row's GROUP BY key.
func groupKeyOf(st *sql.SelectStmt, row schema.Row) (string, []schema.Value, error) {
	if len(st.GroupBy) == 0 {
		return "", nil, nil
	}
	vals := make([]schema.Value, len(st.GroupBy))
	var b strings.Builder
	for i, g := range st.GroupBy {
		vals[i] = g.FieldValue(row)
		b.WriteString(vals[i].String())
		b.WriteByte(0)
	}
	return b.String(), vals, nil
}
