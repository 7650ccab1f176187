package query

import (
	"fmt"
	"sort"

	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/workpool"
)

// aggregate runs two-stage grouped aggregation — the aggregation DAG of
// Dremel (§3.1) — on the DeltaGroup accumulators matview maintains
// views with: one partial group map per shard, each row folded in as a
// +1 delta, built in parallel (at most Config.Shards at a time), then
// the merge. each feeds shard sh's rows to visit — a leaf batch's
// selected rows on the single-table path, a slice of the joined rows on
// the join path.
func (e *Engine) aggregate(st *sql.SelectStmt, shards int, each func(sh int, visit func(schema.Row) error) error, res *Result) (*Result, error) {
	gr, err := NewGrouping(st)
	if err != nil {
		return nil, err
	}
	partials := make([]map[string]*DeltaGroup, shards)
	err = workpool.Run(shards, e.cfg.Shards, func(_, sh int) error {
		groups := make(map[string]*DeltaGroup)
		partials[sh] = groups
		return each(sh, func(row schema.Row) error {
			_, err := gr.Apply(groups, row, 1)
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	return finalizeAgg(st, gr, partials, res)
}

// finalizeAgg merges partial group maps and renders the output rows —
// the final stage of the DAG.
func finalizeAgg(st *sql.SelectStmt, gr *Grouping, partials []map[string]*DeltaGroup, res *Result) (*Result, error) {
	for _, it := range st.Items {
		res.Columns = append(res.Columns, itemName(it))
	}
	final := make(map[string]*DeltaGroup)
	var order []string
	for _, part := range partials {
		for key, g := range part {
			if f := final[key]; f != nil {
				f.Merge(g)
				continue
			}
			final[key] = g
			order = append(order, key)
		}
	}
	// A global aggregate over zero rows still yields one row.
	if len(st.GroupBy) == 0 && len(final) == 0 {
		final[""] = NewDeltaGroup(nil, gr.fns)
		order = append(order, "")
	}
	sort.Strings(order)

	rows := make([]groupRow, len(order))
	for i, key := range order {
		rows[i] = groupRow{final[key], gr.Row(final[key], true)}
	}
	if err := orderAgg(st, rows); err != nil {
		return nil, err
	}
	for _, r := range rows {
		res.rows = append(res.rows, r.out)
	}
	if st.Limit >= 0 && int64(len(res.rows)) > st.Limit {
		res.rows = res.rows[:st.Limit]
	}
	return res, nil
}

// groupRow is one output row of a grouped result and the group it
// renders.
type groupRow struct {
	g   *DeltaGroup
	out []schema.Value
}

// orderAgg sorts a grouped result by ORDER BY. An output alias orders
// by that output column; a grouped column orders by the group's key
// value, whether or not it is selected. Any other column is an error.
func orderAgg(st *sql.SelectStmt, rows []groupRow) error {
	if len(st.OrderBy) == 0 {
		return nil
	}
	by := make([]func(groupRow) schema.Value, len(st.OrderBy))
	for t, o := range st.OrderBy {
		name := o.Column.Name()
		if o.Column.Leaf == nil {
			for i, it := range st.Items {
				if it.Alias == name {
					by[t] = func(r groupRow) schema.Value { return r.out[i] }
				}
			}
		} else if k := groupPos(st, name); k >= 0 {
			by[t] = func(r groupRow) schema.Value { return r.g.Keys[k] }
		}
		if by[t] == nil {
			return fmt.Errorf("query: cannot ORDER BY %q (neither grouped nor an output alias)", name)
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for t, o := range st.OrderBy {
			c := compareForOrder(by[t](rows[i]), by[t](rows[j]))
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
}
