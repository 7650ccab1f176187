// Package matview implements incremental materialized views: a
// CREATE MATERIALIZED VIEW statement compiles to a maintenance plan
// whose maintainer consumes the base tables' `_CHANGE_TYPE` change
// streams through the exactly-once read-session source connector,
// applies the deltas to retract-capable aggregate state (and, for
// joined views, a two-sided symmetric hash-join index), and writes the
// changed view rows back through the exactly-once dataflow sink. The
// view is itself an ordinary Vortex primary-keyed table — snapshot
// reads, read sessions, caching and GC all apply to it unchanged.
package matview

import (
	"fmt"
	"strings"

	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/schema"
	"vortex/internal/sql"
)

// SchemaFunc resolves a base table's schema (client.GetSchema shaped).
type SchemaFunc func(table meta.TableID) (*schema.Schema, error)

// Definition is a compiled materialized view: the resolved defining
// query, the base tables it reads, and the inferred view schema.
type Definition struct {
	// View is the view's own table id (the statement's view name).
	View meta.TableID
	// SelectSQL is the defining SELECT, rendered back from the parsed
	// statement — recomputing it at a pinned snapshot is the oracle the
	// maintained view is verified against.
	SelectSQL string
	// Stmt is the resolved defining query. Column references bind into
	// the base row space (single table) or the concatenated left++right
	// row space (joined views).
	Stmt *sql.SelectStmt
	// Left and Right are the base tables; Right is "" for single-table
	// views. LeftSchema/RightSchema are their schemas at compile time.
	Left, Right             meta.TableID
	LeftSchema, RightSchema *schema.Schema
	// ViewSchema is the inferred output schema: one field per select
	// item, with the group-by columns forming the primary key.
	ViewSchema *schema.Schema

	// grouping folds base rows into DeltaGroups and renders a group as
	// its view row — the snapshot engine's GROUP BY mechanism.
	grouping *query.Grouping
}

// Compile parses and resolves a CREATE MATERIALIZED VIEW statement and
// infers the view's table schema. Restrictions (each one is a
// compile-time error, never a silent wrong view):
//
//   - the defining query must GROUP BY at least one column, and every
//     grouped column must appear as a plain select item — the group
//     columns become the view's primary key;
//   - base tables must have primary keys (their change streams carry
//     the retraction context maintenance needs);
//   - SUM/MIN/MAX/AVG arguments must be plain column references, so
//     the view column's kind is known statically;
//   - ORDER BY and LIMIT are rejected (a view is an unordered table).
func Compile(text string, schemaOf SchemaFunc) (*Definition, error) {
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	cv, ok := stmt.(*sql.CreateViewStmt)
	if !ok {
		return nil, fmt.Errorf("matview: not a CREATE MATERIALIZED VIEW statement: %T", stmt)
	}
	st := cv.Query
	if len(st.GroupBy) == 0 {
		return nil, fmt.Errorf("matview: %s: defining query must GROUP BY (group columns form the view's primary key)", cv.Name)
	}
	if st.Star {
		return nil, fmt.Errorf("matview: %s: SELECT * is not maintainable", cv.Name)
	}
	if len(st.OrderBy) > 0 || st.Limit >= 0 {
		return nil, fmt.Errorf("matview: %s: ORDER BY/LIMIT have no meaning for a view", cv.Name)
	}

	d := &Definition{
		View: meta.TableID(cv.Name),
		Stmt: st,
		Left: meta.TableID(st.Table),
	}
	d.LeftSchema, err = schemaOf(d.Left)
	if err != nil {
		return nil, err
	}
	if len(d.LeftSchema.PrimaryKey) == 0 {
		return nil, fmt.Errorf("matview: %s: base table %s has no primary key", cv.Name, d.Left)
	}
	if st.Join != nil {
		d.Right = meta.TableID(st.Join.Table)
		d.RightSchema, err = schemaOf(d.Right)
		if err != nil {
			return nil, err
		}
		if len(d.RightSchema.PrimaryKey) == 0 {
			return nil, fmt.Errorf("matview: %s: base table %s has no primary key", cv.Name, d.Right)
		}
		if err := sql.ResolveJoin(st, d.LeftSchema, d.RightSchema); err != nil {
			return nil, err
		}
	} else if err := sql.Resolve(cv, d.LeftSchema); err != nil {
		return nil, err
	}
	d.SelectSQL = selectString(st)

	if err := d.inferSchema(); err != nil {
		return nil, err
	}
	return d, nil
}

// inferSchema derives the view's table schema from the resolved items.
func (d *Definition) inferSchema() error {
	st := d.Stmt
	gr, err := query.NewGrouping(st)
	if err != nil {
		return fmt.Errorf("matview: %s: %w", d.View, err)
	}
	vs := &schema.Schema{}
	seen := map[string]bool{}
	grouped := 0
	for i, it := range st.Items {
		name := viewColumnName(it, i)
		if strings.Contains(name, ".") {
			return fmt.Errorf("matview: %s: column %q needs an alias (view column names are flat)", d.View, name)
		}
		if seen[name] {
			return fmt.Errorf("matview: %s: duplicate view column %q (add aliases)", d.View, name)
		}
		seen[name] = true
		switch x := it.Expr.(type) {
		case *sql.Aggregate:
			kind, err := aggKind(x)
			if err != nil {
				return fmt.Errorf("matview: %s: %w", d.View, err)
			}
			vs.Fields = append(vs.Fields, &schema.Field{Name: name, Kind: kind, Mode: schema.Nullable})
		case *sql.ColumnRef: // a grouped column: NewGrouping refuses any other
			vs.Fields = append(vs.Fields, &schema.Field{Name: name, Kind: x.Leaf.Kind, Mode: schema.Required})
			vs.PrimaryKey = append(vs.PrimaryKey, name)
			grouped++
		}
	}
	if grouped != len(st.GroupBy) {
		return fmt.Errorf("matview: %s: every GROUP BY column must appear as a select item (they form the view's primary key)", d.View)
	}
	d.grouping = gr
	d.ViewSchema = vs
	return nil
}

// aggKind infers an aggregate output column's kind. COUNT is always
// INT64 and AVG always FLOAT64; SUM/MIN/MAX take their argument's kind,
// which therefore must be a plain column reference.
func aggKind(a *sql.Aggregate) (schema.Kind, error) {
	switch a.Func {
	case sql.AggCount:
		return schema.KindInt64, nil
	case sql.AggAvg:
		return schema.KindFloat64, nil
	}
	ref, ok := a.Arg.(*sql.ColumnRef)
	if !ok {
		return 0, fmt.Errorf("%s argument must be a column reference", a.Func)
	}
	switch k := ref.Leaf.Kind; k {
	case schema.KindInt64, schema.KindFloat64, schema.KindNumeric,
		schema.KindString, schema.KindTimestamp, schema.KindDate, schema.KindBool:
		return k, nil
	default:
		return 0, fmt.Errorf("%s over %v is not maintainable", a.Func, k)
	}
}

// viewColumnName names item i of the view: the alias when given, else
// the column's last path segment, else a positional name.
func viewColumnName(it sql.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sql.ColumnRef); ok {
		return ref.Path[len(ref.Path)-1]
	}
	return fmt.Sprintf("f%d", i)
}

// selectString renders the defining SELECT back to SQL — the recompute
// oracle. It mirrors the parsed shape (items, join, where, group by).
func selectString(st *sql.SelectStmt) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	for i, it := range st.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(sql.ExprString(it.Expr))
		if it.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(it.Alias)
		}
	}
	b.WriteString(" FROM ")
	b.WriteString(st.Table)
	if st.TableAlias != "" {
		b.WriteString(" AS ")
		b.WriteString(st.TableAlias)
	}
	if st.Join != nil {
		b.WriteString(" JOIN ")
		b.WriteString(st.Join.Table)
		if st.Join.Alias != "" {
			b.WriteString(" AS ")
			b.WriteString(st.Join.Alias)
		}
		b.WriteString(" ON ")
		b.WriteString(sql.ExprString(st.Join.On))
	}
	if st.Where != nil {
		b.WriteString(" WHERE ")
		b.WriteString(sql.ExprString(st.Where))
	}
	b.WriteString(" GROUP BY ")
	for i, g := range st.GroupBy {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(g.Name())
	}
	return b.String()
}

// ViewRow renders one group's current view row in select-item order.
// live=false renders the retraction form: key columns populated (they
// address the row), aggregate columns NULL, change type DELETE.
func (d *Definition) ViewRow(g *query.DeltaGroup, live bool) schema.Row {
	row := schema.Row{Values: d.grouping.Row(g, live), Change: schema.ChangeDelete}
	if live {
		row.Change = schema.ChangeUpsert
	}
	return row
}
