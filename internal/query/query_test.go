package query_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/schema"
)

func salesSchema(withPK bool) *schema.Schema {
	s := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "orderTimestamp", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "salesOrderKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "totalSale", Kind: schema.KindNumeric, Mode: schema.Nullable},
			{Name: "qty", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PartitionField: "orderTimestamp",
		ClusterBy:      []string{"customerKey"},
	}
	if withPK {
		s.PrimaryKey = []string{"salesOrderKey"}
	}
	return s
}

func saleRow(day, i int, customer string, total int64) schema.Row {
	return schema.NewRow(
		schema.Timestamp(time.Date(2023, 10, 1+day, 9, 0, i, 0, time.UTC)),
		schema.String(fmt.Sprintf("SO-%d-%d", day, i)),
		schema.String(customer),
		schema.Numeric(total*schema.NumericScale),
		schema.Int64(int64(i)),
	)
}

type qenv struct {
	r    *core.Region
	c    *client.Client
	eng  *query.Engine
	opt  *optimizer.Optimizer
	ctx  context.Context
	seen map[string]int // SELECT occurrences, for golden keys
}

func newQEnv(t testing.TB, s *schema.Schema, table meta.TableID) *qenv {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	if err := c.CreateTable(ctx, table, s); err != nil {
		t.Fatal(err)
	}
	eng := query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{MaxMaskRanges: 4})
	ocfg := optimizer.DefaultConfig()
	opt := optimizer.New(ocfg, c, r.Net, r.Router(), r.Colossus, r.Clock)
	return &qenv{r: r, c: c, eng: eng, opt: opt, ctx: ctx}
}

func (e *qenv) ingest(t testing.TB, table meta.TableID, rows []schema.Row) {
	t.Helper()
	s, err := e.c.CreateStream(e.ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 50
	for lo := 0; lo < len(rows); lo += batch {
		hi := lo + batch
		if hi > len(rows) {
			hi = len(rows)
		}
		if _, err := s.Append(e.ctx, rows[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
}

func (e *qenv) seal(t testing.TB, table meta.TableID, rows []schema.Row) {
	t.Helper()
	s, err := e.c.CreateStream(e.ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(rows); lo += 50 {
		hi := lo + 50
		if hi > len(rows) {
			hi = len(rows)
		}
		if _, err := s.Append(e.ctx, rows[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Finalize(e.ctx); err != nil {
		t.Fatal(err)
	}
	e.r.HeartbeatAll(e.ctx, false)
}

// mustQuery executes sqlText and, for SELECTs, fails unless the result
// matches its recorded golden digest (see golden_test.go) and the
// batch and row views of the result agree. Every SELECT in this file
// is thereby a regression case against the answers the row-at-a-time
// engine gave.
func (e *qenv) mustQuery(t testing.TB, sqlText string) *query.Result {
	t.Helper()
	res, err := e.eng.Query(e.ctx, sqlText)
	if err != nil {
		t.Fatalf("query %q: %v", sqlText, err)
	}
	if strings.HasPrefix(strings.ToUpper(strings.TrimSpace(sqlText)), "SELECT") {
		e.checkGolden(t, sqlText, res)
		assertViews(t, sqlText, res)
	}
	return res
}

// assertViews checks that the columnar and row views of a result
// describe the same data.
func assertViews(t testing.TB, sqlText string, got *query.Result) {
	t.Helper()
	gr := got.Rows()
	var rebuilt [][]schema.Value
	for _, b := range got.Batches() {
		for i := 0; i < b.NumRows; i++ {
			row := make([]schema.Value, len(b.Cols))
			for j := range b.Cols {
				row[j] = b.Cols[j].Values[i]
			}
			rebuilt = append(rebuilt, row)
		}
	}
	if len(rebuilt) != len(gr) {
		t.Fatalf("%q: batches hold %d rows, Rows() %d", sqlText, len(rebuilt), len(gr))
	}
	for i := range gr {
		if fmt.Sprint(rebuilt[i]) != fmt.Sprint(gr[i]) {
			t.Fatalf("%q batch row %d: %v vs %v", sqlText, i, rebuilt[i], gr[i])
		}
	}
}

func TestSelectFilterProjectOrder(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.sales")
	var rows []schema.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, saleRow(0, i, fmt.Sprintf("C-%d", i%3), int64(i*10)))
	}
	e.ingest(t, "d.sales", rows)

	res := e.mustQuery(t, `
		SELECT salesOrderKey, totalSale
		FROM d.sales
		WHERE totalSale >= 50 AND customerKey != 'C-0'
		ORDER BY totalSale DESC
		LIMIT 3`)
	if len(res.Columns) != 2 || res.Columns[0] != "salesOrderKey" {
		t.Fatalf("columns = %v", res.Columns)
	}
	// totals >= 50 with customer != C-0: i in {5,7,8} (i%3!=0) → 80,70,50.
	want := []int64{80, 70, 50}
	if len(res.Rows()) != 3 {
		t.Fatalf("rows = %v", res.Rows())
	}
	for i, r := range res.Rows() {
		if got := r[1].AsNumericScaled() / schema.NumericScale; got != want[i] {
			t.Fatalf("row %d total = %d, want %d", i, got, want[i])
		}
	}
}

func TestSelectStarAndFreshness(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.fresh")
	e.ingest(t, "d.fresh", []schema.Row{saleRow(0, 1, "A", 5)})
	// Sub-second freshness: the row is immediately queryable.
	res := e.mustQuery(t, "SELECT * FROM d.fresh")
	if len(res.Rows()) != 1 || len(res.Columns) != 5 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows()), res.Columns)
	}
}

func TestAggregation(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.agg")
	var rows []schema.Row
	for i := 0; i < 12; i++ {
		rows = append(rows, saleRow(0, i, fmt.Sprintf("C-%d", i%3), int64(i)))
	}
	e.ingest(t, "d.agg", rows)

	res := e.mustQuery(t, `
		SELECT customerKey, COUNT(*) AS n, SUM(qty) AS total, MIN(qty) AS lo, MAX(qty) AS hi, AVG(qty) AS mean
		FROM d.agg GROUP BY customerKey ORDER BY customerKey`)
	if len(res.Rows()) != 3 {
		t.Fatalf("groups = %v", res.Rows())
	}
	// Group C-0: i in {0,3,6,9}: count 4, sum 18, min 0, max 9, avg 4.5.
	g0 := res.Rows()[0]
	if g0[0].AsString() != "C-0" || g0[1].AsInt64() != 4 || g0[2].AsInt64() != 18 ||
		g0[3].AsInt64() != 0 || g0[4].AsInt64() != 9 || g0[5].AsFloat64() != 4.5 {
		t.Fatalf("group C-0 = %v", g0)
	}

	// Global aggregate without GROUP BY.
	res = e.mustQuery(t, "SELECT COUNT(*), SUM(totalSale) FROM d.agg")
	if len(res.Rows()) != 1 || res.Rows()[0][0].AsInt64() != 12 {
		t.Fatalf("global agg = %v", res.Rows())
	}
	// Aggregate over empty table yields one row with COUNT 0.
	e2 := newQEnv(t, salesSchema(false), "d.empty")
	res = e2.mustQuery(t, "SELECT COUNT(*) FROM d.empty")
	if len(res.Rows()) != 1 || res.Rows()[0][0].AsInt64() != 0 {
		t.Fatalf("empty agg = %v", res.Rows())
	}
}

// TestAggregateOrderByGroupedColumn: ORDER BY in a grouped query orders
// by a grouped column's values even when it is not selected, and
// refuses a column that is neither grouped nor an output alias.
func TestAggregateOrderByGroupedColumn(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.aggorder")
	var rows []schema.Row
	for i := 0; i < 40; i++ {
		rows = append(rows, saleRow(0, i, fmt.Sprintf("C-%d", i%3), int64(i)))
	}
	e.ingest(t, "d.aggorder", rows)

	res, err := e.eng.Query(e.ctx, `SELECT COUNT(*) AS n, MIN(qty) AS lo FROM d.aggorder GROUP BY qty ORDER BY qty DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, row := range res.Rows() {
		got = append(got, row[1].AsInt64())
	}
	if fmt.Sprint(got) != "[39 38 37 36 35]" {
		t.Fatalf("lo = %v, want [39 38 37 36 35]", got)
	}
	if _, err := e.eng.Query(e.ctx, `SELECT customerKey, COUNT(*) AS n FROM d.aggorder GROUP BY customerKey ORDER BY qty`); err == nil {
		t.Fatal("ORDER BY a column that is neither grouped nor an alias succeeded")
	}
}

func TestQueryUnionWOSAndROS(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.union")
	var sealed []schema.Row
	for i := 0; i < 20; i++ {
		sealed = append(sealed, saleRow(0, i, "C-A", int64(i)))
	}
	e.seal(t, "d.union", sealed)
	if _, err := e.opt.ConvertTable(e.ctx, "d.union"); err != nil {
		t.Fatal(err)
	}
	// Fresh streaming rows land in WOS after conversion.
	e.ingest(t, "d.union", []schema.Row{saleRow(0, 100, "C-B", 999)})
	res := e.mustQuery(t, "SELECT COUNT(*) FROM d.union")
	if res.Rows()[0][0].AsInt64() != 21 {
		t.Fatalf("union count = %v, want 21", res.Rows()[0][0])
	}
	res = e.mustQuery(t, "SELECT customerKey FROM d.union WHERE totalSale = 999")
	if len(res.Rows()) != 1 || res.Rows()[0][0].AsString() != "C-B" {
		t.Fatalf("fresh row = %v", res.Rows())
	}
}

func TestPartitionEliminationPrunesFragments(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.prune")
	// Three days of data, sealed+converted → one ROS fragment per day.
	for day := 0; day < 3; day++ {
		var rows []schema.Row
		for i := 0; i < 30; i++ {
			rows = append(rows, saleRow(day, i, fmt.Sprintf("C-%02d", i), int64(i)))
		}
		e.seal(t, "d.prune", rows)
	}
	if _, err := e.opt.ConvertTable(e.ctx, "d.prune"); err != nil {
		t.Fatal(err)
	}
	res := e.mustQuery(t, `
		SELECT COUNT(*) FROM d.prune
		WHERE orderTimestamp >= TIMESTAMP '2023-10-03 00:00:00'`)
	if res.Rows()[0][0].AsInt64() != 30 {
		t.Fatalf("count = %v, want 30", res.Rows()[0][0])
	}
	if res.Stats.AssignmentsPruned == 0 {
		t.Fatalf("no fragments pruned: %+v", res.Stats)
	}
	// Clustering-key pruning: an absent customer prunes via bloom/range.
	res = e.mustQuery(t, "SELECT COUNT(*) FROM d.prune WHERE customerKey = 'ZZZ-NOT-THERE'")
	if res.Rows()[0][0].AsInt64() != 0 {
		t.Fatalf("count = %v", res.Rows()[0][0])
	}
	if res.Stats.AssignmentsPruned == 0 {
		t.Fatal("clustering predicate pruned nothing")
	}
	// Pruning must never change results: the same COUNT per day filter.
	res = e.mustQuery(t, `
		SELECT COUNT(*) FROM d.prune
		WHERE orderTimestamp >= TIMESTAMP '2023-10-01 00:00:00'`)
	if res.Rows()[0][0].AsInt64() != 90 {
		t.Fatalf("full count = %v, want 90", res.Rows()[0][0])
	}
}

func TestDeleteStatement(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.del")
	var rows []schema.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, saleRow(0, i, fmt.Sprintf("C-%d", i%2), int64(i)))
	}
	e.seal(t, "d.del", rows)
	res := e.mustQuery(t, "DELETE FROM d.del WHERE customerKey = 'C-1'")
	if res.Stats.RowsAffected != 10 {
		t.Fatalf("affected = %d, want 10", res.Stats.RowsAffected)
	}
	res = e.mustQuery(t, "SELECT COUNT(*) FROM d.del")
	if res.Rows()[0][0].AsInt64() != 10 {
		t.Fatalf("count after delete = %v", res.Rows()[0][0])
	}
	res = e.mustQuery(t, "SELECT COUNT(*) FROM d.del WHERE customerKey = 'C-1'")
	if res.Rows()[0][0].AsInt64() != 0 {
		t.Fatal("deleted rows still visible")
	}
	// Deleting again affects nothing (idempotent semantics).
	res = e.mustQuery(t, "DELETE FROM d.del WHERE customerKey = 'C-1'")
	if res.Stats.RowsAffected != 0 {
		t.Fatalf("second delete affected %d", res.Stats.RowsAffected)
	}
}

func TestDeleteOnStreamletTail(t *testing.T) {
	// Rows never heartbeated: the SMS knows no fragments, so the DML
	// must mark the streamlet tail (§7.3).
	e := newQEnv(t, salesSchema(false), "d.tail")
	var rows []schema.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, saleRow(0, i, "C", int64(i)))
	}
	e.ingest(t, "d.tail", rows)
	res := e.mustQuery(t, "DELETE FROM d.tail WHERE qty < 5")
	if res.Stats.RowsAffected != 5 {
		t.Fatalf("affected = %d", res.Stats.RowsAffected)
	}
	res = e.mustQuery(t, "SELECT COUNT(*) FROM d.tail")
	if res.Rows()[0][0].AsInt64() != 5 {
		t.Fatalf("count = %v", res.Rows()[0][0])
	}
	// Heartbeat maps the tail mask onto the now-reported fragments; the
	// result must not change (§7.3).
	e.r.HeartbeatAll(e.ctx, false)
	res = e.mustQuery(t, "SELECT COUNT(*) FROM d.tail")
	if res.Rows()[0][0].AsInt64() != 5 {
		t.Fatalf("count after heartbeat = %v (tail mask not mapped)", res.Rows()[0][0])
	}
}

func TestUpdateStatement(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.upd")
	var rows []schema.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, saleRow(0, i, "C", 10))
	}
	e.seal(t, "d.upd", rows)
	res := e.mustQuery(t, "UPDATE d.upd SET totalSale = totalSale * 2, customerKey = 'VIP' WHERE qty >= 8")
	if res.Stats.RowsAffected != 2 {
		t.Fatalf("affected = %d", res.Stats.RowsAffected)
	}
	res = e.mustQuery(t, "SELECT customerKey, totalSale FROM d.upd WHERE qty >= 8 ORDER BY qty")
	if len(res.Rows()) != 2 {
		t.Fatalf("rows = %v", res.Rows())
	}
	for _, r := range res.Rows() {
		if r[0].AsString() != "VIP" || r[1].AsNumericScaled() != 20*schema.NumericScale {
			t.Fatalf("updated row = %v", r)
		}
	}
	// Total row count unchanged.
	res = e.mustQuery(t, "SELECT COUNT(*) FROM d.upd")
	if res.Rows()[0][0].AsInt64() != 10 {
		t.Fatalf("count = %v", res.Rows()[0][0])
	}
}

func TestMaskCoalescingReinsertsRows(t *testing.T) {
	// MaxMaskRanges=4: five disjoint singleton deletions in one fragment
	// exceed the limit, so the mask is coalesced to one span and the
	// unaffected rows inside it are reinserted (§7.3).
	e := newQEnv(t, salesSchema(false), "d.coal")
	var rows []schema.Row
	for i := 0; i < 20; i++ {
		rows = append(rows, saleRow(0, i, "C", int64(i)))
	}
	e.seal(t, "d.coal", rows)
	res := e.mustQuery(t, "DELETE FROM d.coal WHERE qty = 0 OR qty = 2 OR qty = 4 OR qty = 6 OR qty = 8")
	if res.Stats.RowsAffected != 5 {
		t.Fatalf("affected = %d, want 5", res.Stats.RowsAffected)
	}
	count := e.mustQuery(t, "SELECT COUNT(*), SUM(qty) FROM d.coal")
	if count.Rows()[0][0].AsInt64() != 15 {
		t.Fatalf("count = %v, want 15", count.Rows()[0][0])
	}
	// Sum 0..19 = 190, minus deleted 0+2+4+6+8 = 20 → 170. Reinserted
	// rows must preserve contents exactly.
	if count.Rows()[0][1].AsInt64() != 170 {
		t.Fatalf("sum = %v, want 170", count.Rows()[0][1])
	}
}

func TestQueryOnPKTableResolvesUpserts(t *testing.T) {
	e := newQEnv(t, salesSchema(true), "d.cdc")
	r1 := saleRow(0, 1, "A", 10).WithChange(schema.ChangeUpsert)
	r2 := saleRow(0, 2, "B", 20).WithChange(schema.ChangeUpsert)
	// New version of SO-0-1.
	r3 := saleRow(0, 1, "A", 99).WithChange(schema.ChangeUpsert)
	// Delete SO-0-2.
	r4 := saleRow(0, 2, "B", 0).WithChange(schema.ChangeDelete)
	e.ingest(t, "d.cdc", []schema.Row{r1, r2, r3, r4})
	res := e.mustQuery(t, "SELECT salesOrderKey, totalSale FROM d.cdc ORDER BY salesOrderKey")
	if len(res.Rows()) != 1 {
		t.Fatalf("rows = %v, want only the latest SO-0-1", res.Rows())
	}
	if res.Rows()[0][0].AsString() != "SO-0-1" || res.Rows()[0][1].AsNumericScaled() != 99*schema.NumericScale {
		t.Fatalf("row = %v", res.Rows()[0])
	}
	// DML on change-captured tables is rejected.
	if _, err := e.eng.Query(e.ctx, "DELETE FROM d.cdc WHERE totalSale > 0"); err == nil {
		t.Fatal("DML on CDC table accepted")
	}
}

func TestSnapshotQueryTimeTravel(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.tt")
	e.ingest(t, "d.tt", []schema.Row{saleRow(0, 1, "A", 1)})
	snap := e.r.Clock.Now().Latest
	time.Sleep(12 * time.Millisecond)
	e.ingest(t, "d.tt", []schema.Row{saleRow(0, 2, "A", 2)})
	res, err := e.eng.QueryAt(e.ctx, "SELECT COUNT(*) FROM d.tt", snap)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows()[0][0].AsInt64() != 1 {
		t.Fatalf("snapshot count = %v", res.Rows()[0][0])
	}
}

func TestQueryErrors(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.err")
	for _, q := range []string{
		"SELECT nope FROM d.err",
		"SELECT * FROM d.missing",
		"SELEKT * FROM d.err",
		"SELECT customerKey, COUNT(*) FROM d.err",                          // missing GROUP BY
		"SELECT customerKey, COUNT(*) + 1 FROM d.err GROUP BY customerKey", // an aggregate inside an expression
	} {
		if _, err := e.eng.Query(e.ctx, q); err == nil {
			t.Errorf("query %q succeeded", q)
		}
	}
}

// TestVectorizedCodeSkipStats: after conversion to ROS, a selective
// predicate over a dictionary-encoded column must prune rows in code
// space — without decoding them — and the stats must say so.
func TestVectorizedCodeSkipStats(t *testing.T) {
	e := newQEnv(t, salesSchema(false), "d.skip")
	var rows []schema.Row
	for i := 0; i < 90; i++ {
		rows = append(rows, saleRow(0, i, fmt.Sprintf("C-%d", i%3), int64(i)))
	}
	e.seal(t, "d.skip", rows)
	if _, err := e.opt.ConvertTable(e.ctx, "d.skip"); err != nil {
		t.Fatal(err)
	}

	res := e.mustQuery(t, "SELECT salesOrderKey FROM d.skip WHERE customerKey = 'C-1'")
	if got := len(res.Rows()); got != 30 {
		t.Fatalf("rows = %d, want 30", got)
	}
	st := res.Stats
	if st.RowsCodeSkipped == 0 {
		t.Fatalf("no code-space skips over a dictionary column: %+v", st)
	}
	if st.RowsCodeSkipped+st.RowsDecoded != st.RowsScanned {
		t.Fatalf("skipped(%d) + decoded(%d) != scanned(%d)", st.RowsCodeSkipped, st.RowsDecoded, st.RowsScanned)
	}
	if st.RowsDecoded >= st.RowsScanned {
		t.Fatalf("selective scan decoded every row: %+v", st)
	}
}

// TestVectorizedKeyedCodeSkip: primary-keyed tables ride the same batch
// pipeline as keyless ones, so after change resolution a selective
// predicate over a dictionary-encoded ROS column still prunes in code
// space and the stats still balance.
func TestVectorizedKeyedCodeSkip(t *testing.T) {
	e := newQEnv(t, salesSchema(true), "d.pkskip")
	var rows []schema.Row
	for i := 0; i < 90; i++ {
		rows = append(rows, saleRow(0, i, fmt.Sprintf("C-%d", i%3), int64(i)).WithChange(schema.ChangeUpsert))
	}
	e.seal(t, "d.pkskip", rows)
	if _, err := e.opt.ConvertTable(e.ctx, "d.pkskip"); err != nil {
		t.Fatal(err)
	}

	res := e.mustQuery(t, "SELECT salesOrderKey FROM d.pkskip WHERE customerKey = 'C-1'")
	if got := len(res.Rows()); got != 30 {
		t.Fatalf("rows = %d, want 30", got)
	}
	st := res.Stats
	if st.RowsCodeSkipped == 0 {
		t.Fatalf("keyed table skipped nothing in code space: %+v", st)
	}
	if st.RowsCodeSkipped+st.RowsDecoded != st.RowsScanned {
		t.Fatalf("skipped(%d) + decoded(%d) != scanned(%d)", st.RowsCodeSkipped, st.RowsDecoded, st.RowsScanned)
	}
}

// TestResolveBeforeFilter: change resolution must narrow the batches
// before the predicate does. The base rows sit in a ROS fragment, the
// changes in the WOS tail: an UPSERT moves k1 from 'open' to 'closed'
// and a DELETE removes k2, so a filter applied first would still match
// both stale 'open' rows.
func TestResolveBeforeFilter(t *testing.T) {
	sc := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "id", Kind: schema.KindString, Mode: schema.Required},
			{Name: "status", Kind: schema.KindString, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"id"},
	}
	ticket := func(id, status string, ch schema.ChangeType) schema.Row {
		return schema.NewRow(schema.String(id), schema.String(status)).WithChange(ch)
	}
	e := newQEnv(t, sc, "d.tickets")
	e.seal(t, "d.tickets", []schema.Row{
		ticket("k1", "open", schema.ChangeUpsert),
		ticket("k2", "open", schema.ChangeUpsert),
		ticket("k3", "open", schema.ChangeUpsert),
		ticket("k4", "closed", schema.ChangeUpsert),
	})
	if _, err := e.opt.ConvertTable(e.ctx, "d.tickets"); err != nil {
		t.Fatal(err)
	}
	e.ingest(t, "d.tickets", []schema.Row{
		ticket("k1", "closed", schema.ChangeUpsert),
		ticket("k2", "", schema.ChangeDelete),
	})

	for _, tc := range []struct {
		name, sql, want string
	}{
		{"direct-emit", "SELECT id FROM d.tickets WHERE status = 'open'", `[["k3"]]`},
		{"ordered", "SELECT id FROM d.tickets WHERE status = 'closed' ORDER BY id", `[["k1"] ["k4"]]`},
		{"aggregate", "SELECT COUNT(*) FROM d.tickets WHERE status = 'open'", "[[1]]"},
		{"grouped", "SELECT status, COUNT(*) FROM d.tickets GROUP BY status ORDER BY status", `[["closed" 2] ["open" 1]]`},
		{"unfiltered", "SELECT id FROM d.tickets ORDER BY id", `[["k1"] ["k3"] ["k4"]]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := fmt.Sprint(e.mustQuery(t, tc.sql).Rows()); got != tc.want {
				t.Fatalf("%s = %s, want %s", tc.sql, got, tc.want)
			}
		})
	}
}
