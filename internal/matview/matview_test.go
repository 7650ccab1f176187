package matview_test

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/matview"
	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

func ordersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "orderId", Kind: schema.KindString, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "qty", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"orderId"},
	}
}

func customersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "country", Kind: schema.KindString, Mode: schema.Required},
		},
		PrimaryKey: []string{"customerKey"},
	}
}

func order(ch schema.ChangeType, id, cust string, qty int64) schema.Row {
	r := schema.NewRow(schema.String(id), schema.String(cust), schema.Int64(qty))
	r.Change = ch
	return r
}

func customer(ch schema.ChangeType, key, country string) schema.Row {
	r := schema.NewRow(schema.String(key), schema.String(country))
	r.Change = ch
	return r
}

type env struct {
	r   *core.Region
	c   *client.Client
	eng *query.Engine
	ctx context.Context
	t   *testing.T
}

func newEnv(t *testing.T) *env {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	e := &env{
		r: r, c: c,
		eng: query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{}),
		ctx: context.Background(),
		t:   t,
	}
	if err := c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(e.ctx, "d.customers", customersSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *env) append(table meta.TableID, rows ...schema.Row) {
	e.t.Helper()
	s, err := e.c.CreateStream(e.ctx, table, meta.Unbuffered)
	if err != nil {
		e.t.Fatal(err)
	}
	if _, err := s.Append(e.ctx, rows); err != nil {
		e.t.Fatal(err)
	}
}

func (e *env) compileCreate(text string) (*matview.Definition, *matview.Maintainer, *matview.MemStore) {
	e.t.Helper()
	def, err := matview.Compile(text, func(t meta.TableID) (*schema.Schema, error) {
		return e.c.GetSchema(e.ctx, t)
	})
	if err != nil {
		e.t.Fatal(err)
	}
	if err := e.c.CreateTable(e.ctx, def.View, def.ViewSchema); err != nil {
		e.t.Fatal(err)
	}
	store := matview.NewMemStore()
	m, err := matview.NewMaintainer(e.c, def, store, 2)
	if err != nil {
		e.t.Fatal(err)
	}
	return def, m, store
}

// renderedRows renders a result to sorted row strings for value-level
// comparison (maintenance allocates fresh seqs, so only values can be
// compared).
func renderedRows(res *query.Result) []string {
	var out []string
	for _, row := range res.Rows() {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.String())
		}
		out = append(out, strings.Join(parts, "|"))
	}
	sort.Strings(out)
	return out
}

// checkParity asserts the view's contents equal the defining query
// recomputed at the maintainer's applied snapshot.
func (e *env) checkParity(def *matview.Definition, at truetime.Timestamp) {
	e.t.Helper()
	want, err := e.eng.QueryAt(e.ctx, def.SelectSQL, at)
	if err != nil {
		e.t.Fatal(err)
	}
	var cols []string
	for _, f := range def.ViewSchema.Fields {
		cols = append(cols, f.Name)
	}
	got, err := e.eng.Query(e.ctx, fmt.Sprintf("SELECT %s FROM %s", strings.Join(cols, ", "), def.View))
	if err != nil {
		e.t.Fatal(err)
	}
	w, g := renderedRows(want), renderedRows(got)
	if len(w) != len(g) {
		e.t.Fatalf("view has %d rows, recompute has %d\nview:      %v\nrecompute: %v", len(g), len(w), g, w)
	}
	for i := range w {
		if w[i] != g[i] {
			e.t.Fatalf("view row %d = %q, recompute %q", i, g[i], w[i])
		}
	}
}

const joinViewSQL = `CREATE MATERIALIZED VIEW d.bycountry AS
SELECT c.country AS country, COUNT(*) AS orders, SUM(o.qty) AS qty
FROM d.orders AS o JOIN d.customers AS c ON o.customerKey = c.customerKey
GROUP BY c.country`

func TestCompileJoinView(t *testing.T) {
	e := newEnv(t)
	def, _, _ := e.compileCreate(joinViewSQL)
	if def.View != "d.bycountry" || def.Left != "d.orders" || def.Right != "d.customers" {
		t.Fatalf("tables: %s %s %s", def.View, def.Left, def.Right)
	}
	vs := def.ViewSchema
	if len(vs.Fields) != 3 {
		t.Fatalf("view fields: %v", vs.Fields)
	}
	wantKinds := []schema.Kind{schema.KindString, schema.KindInt64, schema.KindInt64}
	wantNames := []string{"country", "orders", "qty"}
	for i, f := range vs.Fields {
		if f.Name != wantNames[i] || f.Kind != wantKinds[i] {
			t.Fatalf("field %d = %s %v", i, f.Name, f.Kind)
		}
	}
	if len(vs.PrimaryKey) != 1 || vs.PrimaryKey[0] != "country" {
		t.Fatalf("view pk: %v", vs.PrimaryKey)
	}
	if vs.Fields[0].Mode != schema.Required || vs.Fields[1].Mode != schema.Nullable {
		t.Fatal("group columns must be REQUIRED, aggregates NULLABLE")
	}
}

func TestCompileErrors(t *testing.T) {
	e := newEnv(t)
	if err := e.c.CreateTable(e.ctx, "d.nopk", &schema.Schema{Fields: []*schema.Field{
		{Name: "x", Kind: schema.KindInt64, Mode: schema.Required},
	}}); err != nil {
		t.Fatal(err)
	}
	schemaOf := func(tb meta.TableID) (*schema.Schema, error) { return e.c.GetSchema(e.ctx, tb) }
	for _, bad := range []string{
		"SELECT customerKey FROM d.customers",                                                        // not CREATE
		"CREATE MATERIALIZED VIEW v AS SELECT country, COUNT(*) FROM d.customers",                    // no GROUP BY
		"CREATE MATERIALIZED VIEW v AS SELECT * FROM d.customers GROUP BY country",                   // star
		"CREATE MATERIALIZED VIEW v AS SELECT COUNT(*) AS n FROM d.customers GROUP BY country",       // group col not selected
		"CREATE MATERIALIZED VIEW v AS SELECT qty, COUNT(*) AS n FROM d.orders GROUP BY customerKey", // ungrouped non-aggregate
		"CREATE MATERIALIZED VIEW v AS SELECT x, COUNT(*) AS n FROM d.nopk GROUP BY x",               // keyless base
		"CREATE MATERIALIZED VIEW v AS SELECT country, COUNT(*) FROM d.customers GROUP BY country LIMIT 3",
		"CREATE MATERIALIZED VIEW v AS SELECT country, COUNT(*) AS country FROM d.customers GROUP BY country", // dup names
	} {
		if _, err := matview.Compile(bad, schemaOf); err == nil {
			t.Errorf("Compile(%q) succeeded", bad)
		}
	}
}

func TestSingleTableViewMaintenance(t *testing.T) {
	e := newEnv(t)
	e.append("d.orders",
		order(schema.ChangeUpsert, "o1", "alice", 10),
		order(schema.ChangeUpsert, "o2", "bob", 20),
		order(schema.ChangeUpsert, "o3", "alice", 5),
	)
	_, m, _ := e.compileCreate(`CREATE MATERIALIZED VIEW d.bycust AS
SELECT customerKey AS cust, COUNT(*) AS n, SUM(qty) AS total, MIN(qty) AS lo, MAX(qty) AS hi
FROM d.orders GROUP BY customerKey`)

	st, err := m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 || st.Upserts != 2 || st.Deletes != 0 {
		t.Fatalf("initial build stats: %+v", st)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)

	// Upsert re-keys o3 to bob, delete o2, new order for carol.
	e.append("d.orders",
		order(schema.ChangeUpsert, "o3", "bob", 7),
		order(schema.ChangeDelete, "o2", "", 0),
		order(schema.ChangeUpsert, "o4", "carol", 50),
	)
	st, err = m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 {
		t.Fatalf("delta cycle read %d events, want 3", st.Events)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)

	// Drain alice's group entirely: its view row must be deleted.
	e.append("d.orders", order(schema.ChangeDelete, "o1", "", 0))
	st, err = m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Deletes != 1 {
		t.Fatalf("drained group emitted no delete: %+v", st)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)

	// Idle cycle: nothing read, nothing written.
	st, err = m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 || st.Upserts != 0 || st.Deletes != 0 {
		t.Fatalf("idle cycle did work: %+v", st)
	}
}

func TestJoinViewMaintenance(t *testing.T) {
	e := newEnv(t)
	e.append("d.customers",
		customer(schema.ChangeUpsert, "alice", "AR"),
		customer(schema.ChangeUpsert, "bob", "CL"),
	)
	e.append("d.orders",
		order(schema.ChangeUpsert, "o1", "alice", 10),
		order(schema.ChangeUpsert, "o2", "bob", 20),
		order(schema.ChangeUpsert, "o3", "ghost", 99), // dangling: no customer
	)
	_, m, _ := e.compileCreate(joinViewSQL)
	st, err := m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)

	// Both sides move: alice relocates to UY (her group's rows move
	// wholesale), the dangling order's customer appears, one order is
	// deleted, and one order re-keys to another customer.
	e.append("d.customers",
		customer(schema.ChangeUpsert, "alice", "UY"),
		customer(schema.ChangeUpsert, "ghost", "AR"),
	)
	e.append("d.orders",
		order(schema.ChangeDelete, "o2", "", 0),
		order(schema.ChangeUpsert, "o1", "ghost", 15),
	)
	st, err = m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)
	// CL drained (bob's only order deleted); UY has no orders left.
	if st.Deletes == 0 {
		t.Fatalf("expected drained groups: %+v", st)
	}

	// Delete a customer: every joined row through it retracts.
	e.append("d.customers", customer(schema.ChangeDelete, "ghost", ""))
	st, err = m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)
}

func TestMaintainerRestartFromStore(t *testing.T) {
	e := newEnv(t)
	e.append("d.customers",
		customer(schema.ChangeUpsert, "alice", "AR"),
		customer(schema.ChangeUpsert, "bob", "CL"),
	)
	e.append("d.orders",
		order(schema.ChangeUpsert, "o1", "alice", 10),
		order(schema.ChangeUpsert, "o2", "bob", 20),
	)
	def, m, store := e.compileCreate(joinViewSQL)
	if _, err := m.Refresh(e.ctx); err != nil {
		t.Fatal(err)
	}

	// The maintainer dies; changes keep arriving.
	e.append("d.orders",
		order(schema.ChangeUpsert, "o3", "alice", 5),
		order(schema.ChangeDelete, "o2", "", 0),
	)
	e.append("d.customers", customer(schema.ChangeUpsert, "alice", "UY"))

	// A successor rebuilds from the store and picks up exactly the
	// un-applied delta (MinSeq excludes everything already folded in).
	m2, err := matview.NewMaintainer(e.c, def, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m2.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 3 {
		t.Fatalf("successor read %d events, want 3 (MinSeq resume)", st.Events)
	}
	e.checkParity(def, st.SnapshotTS)
	if store.Saves() == 0 {
		t.Fatal("store never saved")
	}

	// Restarting with no pending delta is a no-op.
	m3, err := matview.NewMaintainer(e.c, def, store, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err = m3.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 0 {
		t.Fatalf("idle successor read %d events", st.Events)
	}
	e.checkParity(def, st.SnapshotTS)
}

func TestKeylessInsertCounted(t *testing.T) {
	// Plain INSERT rows (no change type) count; a keyless DELETE (NULL
	// key on a nullable-key table) retracts nothing — mirroring
	// dml.ResolveChanges.
	e := newEnv(t)
	loose := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "id", Kind: schema.KindString, Mode: schema.Nullable},
			{Name: "grp", Kind: schema.KindString, Mode: schema.Required},
		},
		PrimaryKey: []string{"id"},
	}
	if err := e.c.CreateTable(e.ctx, "d.loose", loose); err != nil {
		t.Fatal(err)
	}
	ins := func(ch schema.ChangeType, id schema.Value, grp string) schema.Row {
		r := schema.NewRow(id, schema.String(grp))
		r.Change = ch
		return r
	}
	e.append("d.loose",
		ins(schema.ChangeUpsert, schema.String("k1"), "g"),
		ins(schema.ChangeUpsert, schema.Null(), "g"),    // keyless upsert = plain insert
		ins(schema.ChangeDelete, schema.Null(), "zzzz"), // keyless delete: no-op
	)
	_, m, _ := e.compileCreate(
		"CREATE MATERIALIZED VIEW d.vloose AS SELECT grp, COUNT(*) AS n FROM d.loose GROUP BY grp")
	st, err := m.Refresh(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	e.checkParity(m.Definition(), st.SnapshotTS)
	res, err := e.eng.Query(e.ctx, "SELECT n FROM d.vloose WHERE grp = 'g'")
	if err != nil {
		t.Fatal(err)
	}
	if rows := res.Rows(); len(rows) != 1 || rows[0][0].AsInt64() != 2 {
		t.Fatalf("view rows: %v", res.Rows())
	}
}
