package query_test

import (
	"context"
	"fmt"
	"testing"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/schema"
	"vortex/internal/sql"
)

func ordersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "orderId", Kind: schema.KindString, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "amount", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"orderId"},
	}
}

func customersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "country", Kind: schema.KindString, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"customerKey"},
	}
}

func orderRow(id, customer string, amount int64, ch schema.ChangeType) schema.Row {
	r := schema.NewRow(schema.String(id), schema.String(customer), schema.Int64(amount))
	r.Change = ch
	return r
}

func customerRow(key, country string, ch schema.ChangeType) schema.Row {
	r := schema.NewRow(schema.String(key), schema.String(country))
	r.Change = ch
	return r
}

func newJoinEnv(t testing.TB) *qenv {
	t.Helper()
	e := newQEnv(t, ordersSchema(), "shop.orders")
	if err := e.c.CreateTable(e.ctx, "shop.customers", customersSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSnapshotHashJoin(t *testing.T) {
	e := newJoinEnv(t)
	e.ingest(t, "shop.orders", []schema.Row{
		orderRow("o1", "acme", 10, schema.ChangeUpsert),
		orderRow("o2", "acme", 20, schema.ChangeUpsert),
		orderRow("o3", "globex", 30, schema.ChangeUpsert),
		orderRow("o4", "nobody", 40, schema.ChangeUpsert), // no matching customer
	})
	e.ingest(t, "shop.customers", []schema.Row{
		customerRow("acme", "CL", schema.ChangeUpsert),
		customerRow("globex", "AR", schema.ChangeUpsert),
		customerRow("idle", "BR", schema.ChangeUpsert), // no orders
	})

	res, err := e.eng.Query(e.ctx, `
		SELECT o.orderId, c.country, o.amount
		FROM shop.orders o JOIN shop.customers c ON o.customerKey = c.customerKey
		ORDER BY o.orderId`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	want := [][3]string{
		{"o1", "CL", "10"},
		{"o2", "CL", "20"},
		{"o3", "AR", "30"},
	}
	if len(rows) != len(want) {
		t.Fatalf("join rows = %d, want %d: %v", len(rows), len(want), rows)
	}
	for i, w := range want {
		got := [3]string{rows[i][0].AsString(), rows[i][1].AsString(), rows[i][2].String()}
		if got != w {
			t.Errorf("row %d = %v, want %v", i, got, w)
		}
	}
}

func TestJoinAggregateAndWhere(t *testing.T) {
	e := newJoinEnv(t)
	e.ingest(t, "shop.orders", []schema.Row{
		orderRow("o1", "acme", 10, schema.ChangeUpsert),
		orderRow("o2", "acme", 20, schema.ChangeUpsert),
		orderRow("o3", "globex", 30, schema.ChangeUpsert),
		orderRow("o4", "globex", 5, schema.ChangeUpsert),
	})
	e.ingest(t, "shop.customers", []schema.Row{
		customerRow("acme", "CL", schema.ChangeUpsert),
		customerRow("globex", "AR", schema.ChangeUpsert),
	})
	res, err := e.eng.Query(e.ctx, `
		SELECT c.country, COUNT(*) AS n, SUM(o.amount) AS total
		FROM shop.orders o JOIN shop.customers c ON o.customerKey = c.customerKey
		WHERE o.amount >= 10
		GROUP BY c.country
		ORDER BY c.country`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][0].AsString() != "AR" || rows[0][1].AsInt64() != 1 || rows[0][2].AsInt64() != 30 {
		t.Errorf("AR group = %v", rows[0])
	}
	if rows[1][0].AsString() != "CL" || rows[1][1].AsInt64() != 2 || rows[1][2].AsInt64() != 30 {
		t.Errorf("CL group = %v", rows[1])
	}
}

// TestJoinChangeResolution joins two PK tables after upserts and
// deletes: the join must see only the resolved per-key survivors of
// each side's change stream.
func TestJoinChangeResolution(t *testing.T) {
	e := newJoinEnv(t)
	e.ingest(t, "shop.orders", []schema.Row{
		orderRow("o1", "acme", 10, schema.ChangeUpsert),
		orderRow("o2", "acme", 20, schema.ChangeUpsert),
		orderRow("o1", "globex", 11, schema.ChangeUpsert), // o1 re-keyed to globex
		orderRow("o2", "", 0, schema.ChangeDelete),        // o2 gone
	})
	e.ingest(t, "shop.customers", []schema.Row{
		customerRow("acme", "CL", schema.ChangeUpsert),
		customerRow("globex", "AR", schema.ChangeUpsert),
		customerRow("globex", "UY", schema.ChangeUpsert), // country corrected
	})
	res, err := e.eng.Query(e.ctx, `
		SELECT o.orderId, c.country
		FROM shop.orders o JOIN shop.customers c ON o.customerKey = c.customerKey
		ORDER BY o.orderId`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0].AsString() != "o1" || rows[0][1].AsString() != "UY" {
		t.Fatalf("resolved join rows = %v", rows)
	}
}

// TestCacheStatsExactUnderConcurrency: ExecStats' cache counters are
// summed from the query's own scans, so two queries running at once on
// one client each account for exactly their own assignments — one hit
// or one miss apiece — and together for exactly what the cache counted.
// (Differencing the cache's process-wide counters around the leaf
// stage, as the engine used to, credits each query with the other's
// lookups whenever the two overlap.)
func TestCacheStatsExactUnderConcurrency(t *testing.T) {
	r := core.NewRegion(core.DefaultConfig())
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = 32 << 20
	c := r.NewClient(opts)
	ctx := context.Background()
	e := &qenv{r: r, c: c, ctx: ctx, eng: query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{})}
	for table, sc := range map[string]*schema.Schema{"shop.orders": ordersSchema(), "shop.customers": customersSchema()} {
		if err := c.CreateTable(ctx, meta.TableID(table), sc); err != nil {
			t.Fatal(err)
		}
	}
	// Several sealed fragments per table and no live tail: every
	// assignment goes through the cache.
	for i := 0; i < 6; i++ {
		e.seal(t, "shop.orders", []schema.Row{orderRow(fmt.Sprintf("o%d", i), "acme", int64(i), schema.ChangeUpsert)})
		e.seal(t, "shop.customers", []schema.Row{customerRow(fmt.Sprintf("c%d", i), "CL", schema.ChangeUpsert)})
	}
	statements := []string{"SELECT COUNT(*) FROM shop.orders", "SELECT COUNT(*) FROM shop.customers"}
	for round := 0; round < 20; round++ {
		if round%5 == 0 {
			// Drop everything so rounds mix misses with hits.
			for _, table := range []meta.TableID{"shop.orders", "shop.customers"} {
				plan, err := c.Plan(ctx, table, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range plan.Assignments {
					c.ReadCache().Invalidate(a.Frag.Path)
				}
			}
		}
		before := c.ReadCache().Stats()
		var got [2]query.ExecStats
		var errs [2]error
		start := make(chan struct{})
		done := make(chan int)
		for q := range statements {
			go func(q int) {
				<-start
				var res *query.Result
				if res, errs[q] = e.eng.Query(ctx, statements[q]); errs[q] == nil {
					got[q] = res.Stats
				}
				done <- q
			}(q)
		}
		close(start)
		<-done
		<-done
		after := c.ReadCache().Stats()
		for q, st := range got {
			if errs[q] != nil {
				t.Fatal(errs[q])
			}
			if scanned := int64(st.AssignmentsTotal - st.AssignmentsPruned); scanned == 0 || st.CacheHits+st.CacheMisses != scanned {
				t.Fatalf("round %d %q: %d hits + %d misses over %d scanned assignments", round, statements[q], st.CacheHits, st.CacheMisses, scanned)
			}
		}
		if hits, misses := got[0].CacheHits+got[1].CacheHits, got[0].CacheMisses+got[1].CacheMisses; hits != after.Hits-before.Hits || misses != after.Misses-before.Misses {
			t.Fatalf("round %d: queries report %d hits %d misses, the cache counted %d and %d", round, hits, misses, after.Hits-before.Hits, after.Misses-before.Misses)
		}
		if saved := got[0].CacheBytesSaved + got[1].CacheBytesSaved; saved != after.BytesSaved-before.BytesSaved {
			t.Fatalf("round %d: queries report %d bytes saved, the cache counted %d", round, saved, after.BytesSaved-before.BytesSaved)
		}
	}
}

// TestJoinStatsCoverBothSides: a join's ExecStats are the sum of its
// two scans, for every counter. The RAM tier is too small to hold
// anything, so each side's warm scan is served by the disk tier and
// DiskHits must count the fragments of both tables.
func TestJoinStatsCoverBothSides(t *testing.T) {
	r := core.NewRegion(core.DefaultConfig())
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = 1
	opts.DiskCacheDir = t.TempDir()
	opts.DiskCacheBytes = 64 << 20
	c := r.NewClient(opts)
	ctx := context.Background()
	e := &qenv{r: r, c: c, ctx: ctx, eng: query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{})}
	for table, sc := range map[string]*schema.Schema{"shop.orders": ordersSchema(), "shop.customers": customersSchema()} {
		if err := c.CreateTable(ctx, meta.TableID(table), sc); err != nil {
			t.Fatal(err)
		}
	}
	e.seal(t, "shop.orders", []schema.Row{
		orderRow("o1", "acme", 10, schema.ChangeUpsert),
		orderRow("o2", "globex", 20, schema.ChangeUpsert),
	})
	e.seal(t, "shop.customers", []schema.Row{
		customerRow("acme", "CL", schema.ChangeUpsert),
		customerRow("globex", "AR", schema.ChangeUpsert),
	})
	const join = `SELECT o.orderId, c.country FROM shop.orders o JOIN shop.customers c ON o.customerKey = c.customerKey`
	stats := func(sqlText string) query.ExecStats {
		t.Helper()
		res, err := e.eng.Query(ctx, sqlText)
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	stats(join) // cold: back-fills the disk tier
	left, right, both := stats("SELECT COUNT(*) FROM shop.orders"), stats("SELECT COUNT(*) FROM shop.customers"), stats(join)
	if left.DiskHits == 0 || right.DiskHits == 0 {
		t.Fatalf("warm scans missed the disk tier: left %+v right %+v", left, right)
	}
	if both.DiskHits != left.DiskHits+right.DiskHits {
		t.Fatalf("join DiskHits = %d, want %d (left) + %d (right)", both.DiskHits, left.DiskHits, right.DiskHits)
	}
	if both.RowsScanned != left.RowsScanned+right.RowsScanned || both.RowsDecoded != both.RowsScanned {
		t.Fatalf("join row accounting: %+v (left %+v, right %+v)", both, left, right)
	}
	if both.AssignmentsTotal != left.AssignmentsTotal+right.AssignmentsTotal {
		t.Fatalf("join AssignmentsTotal = %d, want %d + %d", both.AssignmentsTotal, left.AssignmentsTotal, right.AssignmentsTotal)
	}
}

func TestHashJoinKernel(t *testing.T) {
	left := ordersSchema()
	right := customersSchema()
	st, err := sql.Parse(`SELECT o.orderId, c.country FROM orders o JOIN customers c ON o.customerKey = c.customerKey`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sql.SelectStmt)
	if err := sql.ResolveJoin(sel, left, right); err != nil {
		t.Fatal(err)
	}
	leftRows := []schema.Row{
		schema.NewRow(schema.String("o1"), schema.String("a"), schema.Int64(1)),
		schema.NewRow(schema.String("o2"), schema.Null(), schema.Int64(2)), // NULL key never joins
		schema.NewRow(schema.String("o3"), schema.String("b"), schema.Int64(3)),
	}
	rightRows := []schema.Row{
		schema.NewRow(schema.String("a"), schema.String("CL")),
		schema.NewRow(schema.String("a"), schema.String("AR")), // duplicate key: both match
		schema.NewRow(schema.Null(), schema.String("XX")),      // NULL build key dropped
	}
	joined := query.HashJoinRows(leftRows, rightRows, sel.Join, len(left.Fields))
	if len(joined) != 2 {
		t.Fatalf("joined = %d rows", len(joined))
	}
	for _, row := range joined {
		if len(row.Values) != 5 {
			t.Fatalf("joined arity = %d", len(row.Values))
		}
		if row.Values[0].AsString() != "o1" {
			t.Errorf("joined left id = %v", row.Values[0])
		}
	}
}

// TestKeylessDeleteNotPhantom: a DELETE row whose primary key columns
// are NULL must not surface as a live row in query results (regression
// for the dml.ResolveChanges keyless-tombstone leak).
func TestKeylessDeleteNotPhantom(t *testing.T) {
	loose := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "id", Kind: schema.KindString, Mode: schema.Nullable},
			{Name: "val", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"id"},
	}
	e := newQEnv(t, loose, "shop.loose")
	up := schema.NewRow(schema.String("k1"), schema.Int64(10))
	up.Change = schema.ChangeUpsert
	del := schema.NewRow(schema.Null(), schema.Null())
	del.Change = schema.ChangeDelete
	e.ingest(t, "shop.loose", []schema.Row{up, del})
	res, err := e.eng.Query(e.ctx, `SELECT id FROM shop.loose`)
	if err != nil {
		t.Fatal(err)
	}
	rows := res.Rows()
	if len(rows) != 1 || rows[0][0].AsString() != "k1" {
		t.Fatalf("keyless delete surfaced as a phantom: %v", rows)
	}
}

// TestDeltaAggRetraction drives each accumulator through its steps in
// order, and again as two partials: the +1 steps split between them
// (first half, second half), merged, then the -1 steps applied to the
// merge. Both must give the case's result.
func TestDeltaAggRetraction(t *testing.T) {
	type step struct {
		v     schema.Value
		delta int64
	}
	num := func(units, nanos int64) schema.Value { return schema.Numeric(units*schema.NumericScale + nanos) }
	cases := []struct {
		fn    sql.AggFunc
		star  bool // COUNT(*): the step values are ignored
		steps []step
		want  string
		kind  schema.Kind // when set, the result's kind
	}{
		{sql.AggCount, true, []step{{schema.Value{}, 1}, {schema.Value{}, 1}, {schema.Value{}, 1}, {schema.Value{}, -1}}, "2", schema.KindInt64},
		{sql.AggCount, false, []step{{schema.Int64(1), 1}, {schema.Int64(2), 1}, {schema.Int64(1), -1}}, "1", 0},
		{sql.AggSum, false, []step{{schema.Int64(10), 1}, {schema.Int64(5), 1}, {schema.Int64(10), -1}}, "5", schema.KindInt64},
		{sql.AggSum, false, []step{{schema.Int64(2), 1}, {num(1, 5e8), 1}, {num(4, 0), 1}, {num(4, 0), -1}}, "3.5", schema.KindNumeric},
		{sql.AggSum, false, []step{{schema.Float64(1.5), 1}, {schema.Int64(2), 1}, {num(1, 25e7), 1}}, "4.75", schema.KindFloat64},
		// Kind demotion: retract the only float (or numeric)
		// contribution and the sum is integral again.
		{sql.AggSum, false, []step{{schema.Int64(3), 1}, {schema.Float64(1.5), 1}, {schema.Float64(1.5), -1}}, "3", schema.KindInt64},
		{sql.AggSum, false, []step{{schema.Int64(3), 1}, {num(1, 5e8), 1}, {num(1, 5e8), -1}}, "3", schema.KindInt64},
		// Retracting the current MIN falls back to the next value.
		{sql.AggMin, false, []step{{schema.Int64(1), 1}, {schema.Int64(2), 1}, {schema.Int64(1), -1}}, "2", 0},
		{sql.AggMax, false, []step{{schema.Int64(9), 1}, {schema.Int64(9), 1}, {schema.Int64(2), 1}, {schema.Int64(9), -1}}, "9", 0},
		// The extreme sits only in the second partial.
		{sql.AggMin, false, []step{{schema.Int64(5), 1}, {schema.Int64(7), 1}, {schema.Int64(1), 1}}, "1", 0},
		{sql.AggMax, false, []step{{schema.String("b"), 1}, {schema.String("a"), 1}, {schema.String("z"), 1}, {schema.String("a"), -1}}, `"z"`, 0},
		{sql.AggMin, false, []step{{schema.Int64(5), 1}, {schema.Int64(7), 1}, {schema.Int64(1), 1}, {schema.Int64(1), -1}}, "5", 0},
		{sql.AggAvg, false, []step{{schema.Int64(2), 1}, {schema.Int64(4), 1}, {schema.Int64(6), 1}, {schema.Int64(6), -1}}, "3", schema.KindFloat64},
		// Draining to empty: SUM, AVG and MIN go NULL, COUNT goes 0.
		{sql.AggSum, false, []step{{schema.Int64(7), 1}, {schema.Int64(7), -1}}, "NULL", 0},
		{sql.AggAvg, false, []step{{schema.Int64(7), 1}, {schema.Int64(8), 1}, {schema.Int64(7), -1}, {schema.Int64(8), -1}}, "NULL", 0},
		{sql.AggMin, false, []step{{schema.Int64(3), 1}, {schema.Int64(4), 1}, {schema.Int64(3), -1}, {schema.Int64(4), -1}}, "NULL", 0},
		{sql.AggCount, false, []step{{schema.Int64(7), 1}, {schema.Int64(7), -1}}, "0", 0},
		// NULLs never contribute in either direction.
		{sql.AggCount, false, []step{{schema.Int64(7), 1}, {schema.Null(), 1}, {schema.Null(), -1}}, "1", 0},
	}
	for i, c := range cases {
		apply := func(d *query.DeltaAgg, s step) {
			if err := d.Apply(s.v, c.star, s.delta); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
		}
		check := func(how string, d *query.DeltaAgg) {
			got := d.Result()
			if got.String() != c.want || (c.kind != 0 && got.Kind() != c.kind) {
				t.Errorf("case %d (%v) %s: result = %s (%v), want %s (%v)", i, c.fn, how, got, got.Kind(), c.want, c.kind)
			}
		}
		whole := query.NewDeltaAgg(c.fn)
		var inserts, retracts []step
		for _, s := range c.steps {
			apply(whole, s)
			if s.delta > 0 {
				inserts = append(inserts, s)
			} else {
				retracts = append(retracts, s)
			}
		}
		check("in order", whole)

		first, second := query.NewDeltaAgg(c.fn), query.NewDeltaAgg(c.fn)
		for k, s := range inserts {
			if k < len(inserts)/2 {
				apply(first, s)
			} else {
				apply(second, s)
			}
		}
		first.Merge(second)
		for _, s := range retracts {
			apply(first, s)
		}
		check("merged", first)
	}
}

// TestDeltaGroupMatchesSnapshotAggregate drives a DeltaGroup with an
// insert/retract history and checks the surviving state matches the
// engine's snapshot aggregation over the surviving rows.
func TestDeltaGroupMatchesSnapshotAggregate(t *testing.T) {
	e := newJoinEnv(t)
	st, err := sql.Parse(`SELECT customerKey, COUNT(*) AS n, SUM(amount) AS total, MIN(amount) AS lo, MAX(amount) AS hi FROM shop.orders GROUP BY customerKey`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*sql.SelectStmt)
	if err := sql.Resolve(sel, ordersSchema()); err != nil {
		t.Fatal(err)
	}
	plan := query.AggPlanOf(sel)
	fns := make([]sql.AggFunc, len(plan))
	for i, it := range plan {
		fns[i] = it.Fn
	}

	groups := map[string]*query.DeltaGroup{}
	apply := func(row schema.Row, delta int64) {
		key, vals := query.GroupKeyOf(sel, row)
		g := groups[key]
		if g == nil {
			g = query.NewDeltaGroup(vals, fns)
			groups[key] = g
		}
		if err := g.ApplyDelta(plan, row, delta); err != nil {
			t.Fatal(err)
		}
		if g.Rows == 0 {
			delete(groups, key)
		}
	}

	mk := func(id, cust string, amt int64) schema.Row {
		return schema.NewRow(schema.String(id), schema.String(cust), schema.Int64(amt))
	}
	// History: o1..o4 inserted; o2 re-priced (retract old, apply new);
	// o4 deleted; globex's only order deleted (group drains).
	apply(mk("o1", "acme", 10), 1)
	apply(mk("o2", "acme", 20), 1)
	apply(mk("o3", "acme", 30), 1)
	apply(mk("o4", "globex", 40), 1)
	apply(mk("o2", "acme", 20), -1)
	apply(mk("o2", "acme", 25), 1)
	apply(mk("o4", "globex", 40), -1)

	// The surviving base rows, ingested for the snapshot aggregate.
	e.ingest(t, "shop.orders", []schema.Row{
		orderRow("o1", "acme", 10, schema.ChangeUpsert),
		orderRow("o2", "acme", 25, schema.ChangeUpsert),
		orderRow("o3", "acme", 30, schema.ChangeUpsert),
	})
	res, err := e.eng.Query(e.ctx, `SELECT customerKey, COUNT(*) AS n, SUM(amount) AS total, MIN(amount) AS lo, MAX(amount) AS hi FROM shop.orders GROUP BY customerKey`)
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Rows()
	if len(snap) != len(groups) {
		t.Fatalf("groups = %d, snapshot = %d", len(groups), len(snap))
	}
	for _, row := range snap {
		key := row[0].String() + "\x00"
		g := groups[key]
		if g == nil {
			t.Fatalf("group %q missing from delta state", row[0].AsString())
		}
		got := []string{g.Keys[0].String()}
		for _, a := range g.Aggs {
			got = append(got, a.Result().String())
		}
		want := make([]string, len(row))
		for i, v := range row {
			want[i] = v.String()
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("group %q: delta %v, snapshot %v", row[0].AsString(), got, want)
		}
	}
}
