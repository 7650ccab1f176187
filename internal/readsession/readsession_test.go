package readsession_test

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/truetime"
	"vortex/internal/verify"
	"vortex/internal/wire"
)

func rsSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "bucket", Kind: schema.KindString, Mode: schema.Nullable},
			{Name: "qty", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PartitionField: "ts",
	}
}

func rsRow(day, i int) schema.Row {
	return schema.NewRow(
		schema.Timestamp(time.Date(2023, 10, 1+day, 9, 0, i, 0, time.UTC)),
		schema.String(fmt.Sprintf("k-%d-%d", day, i)),
		schema.String(fmt.Sprintf("b-%d", i%4)),
		schema.Int64(int64(i)),
	)
}

type rsEnv struct {
	r     *core.Region
	c     *client.Client
	clock *truetime.Manual
	ctx   context.Context
	table meta.TableID
}

func newRSEnv(t testing.TB, table meta.TableID) *rsEnv {
	t.Helper()
	clock := truetime.NewManual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Clock = clock
	// Small fragments so sealed streams rotate into several files each:
	// sessions then have enough assignments to shard and split.
	cfg.MaxFragmentBytes = 512
	r := core.NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	if err := c.CreateTable(ctx, table, rsSchema()); err != nil {
		t.Fatal(err)
	}
	return &rsEnv{r: r, c: c, clock: clock, ctx: ctx, table: table}
}

// seal ingests rows on a fresh stream, finalizes it and heartbeats so
// the SMS registers the sealed fragments.
func (e *rsEnv) seal(t testing.TB, day, n int) {
	t.Helper()
	s, err := e.c.CreateStream(e.ctx, e.table, meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 25 {
		hi := i + 25
		if hi > n {
			hi = n
		}
		var rows []schema.Row
		for j := i; j < hi; j++ {
			rows = append(rows, rsRow(day, j))
		}
		if _, err := s.Append(e.ctx, rows); err != nil {
			t.Fatal(err)
		}
		e.clock.Advance(2 * time.Millisecond)
	}
	if _, err := s.Finalize(e.ctx); err != nil {
		t.Fatal(err)
	}
	e.r.HeartbeatAll(e.ctx, false)
}

// live ingests rows on a stream that stays writable (undiscovered tail).
func (e *rsEnv) live(t testing.TB, day, n int) {
	t.Helper()
	s, err := e.c.CreateStream(e.ctx, e.table, meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for j := 0; j < n; j++ {
		rows = append(rows, rsRow(day, j))
	}
	if _, err := s.Append(e.ctx, rows); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(2 * time.Millisecond)
}

func checkNoDuplicates(t testing.TB, rows []rowenc.Stamped) {
	t.Helper()
	seen := make(map[int64]bool, len(rows))
	for _, r := range rows {
		if seen[r.Seq] {
			t.Fatalf("sequence %d delivered twice", r.Seq)
		}
		seen[r.Seq] = true
	}
}

// drainCommitted drains a shard batch by batch, committing after each.
func drainCommitted(t testing.TB, ctx context.Context, sh *readsession.Shard) []rowenc.Stamped {
	t.Helper()
	var out []rowenc.Stamped
	for {
		b, err := sh.Next(ctx)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("shard %s: %v", sh.ID(), err)
		}
		sh.Commit()
		out = append(out, b.Rows()...)
	}
}

// TestSessionParitySplitAndResume is the acceptance parity test: a
// 4-shard session with a forced mid-scan split and a checkpoint-resume
// after a simulated reader crash must deliver exactly the rows of a
// plain snapshot read, each exactly once.
func TestSessionParitySplitAndResume(t *testing.T) {
	e := newRSEnv(t, "d.parity")
	for day := 0; day < 3; day++ {
		e.seal(t, day, 120)
	}
	e.live(t, 3, 40)
	e.r.ReadSessions.SetBatchRows(32)

	// A flow-control window smaller than one frame degrades the stream to
	// lock-step: the server starts at most one assignment past the frame
	// in flight, so the mid-scan split below always has an unserved tail
	// to move. (With room for two frames the server could reach the
	// shard's last assignment before the split arrived — a scheduling
	// race that failed one run in twelve.)
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 4, Window: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	shards := sess.Shards()
	if len(shards) != 4 {
		t.Fatalf("planned %d shards, want 4", len(shards))
	}

	var all []rowenc.Stamped

	// Shard 0: read one batch mid-scan, then split its unserved tail to
	// a new shard (liquid sharding) and finish both.
	sh0 := shards[0]
	b, err := sh0.Next(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	sh0.Commit()
	all = append(all, b.Rows()...)
	newShard, err := sess.Split(e.ctx, sh0)
	if err != nil {
		t.Fatal(err)
	}
	if newShard == nil {
		t.Fatal("split of a mid-scan shard returned no new shard")
	}
	all = append(all, drainCommitted(t, e.ctx, sh0)...)
	all = append(all, drainCommitted(t, e.ctx, newShard)...)

	// Shard 1: commit one batch, read (but do not commit) another, then
	// crash. The successor resumes from the checkpoint and must re-see
	// exactly the uncommitted suffix.
	sh1 := shards[1]
	b, err = sh1.Next(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	sh1.Commit()
	all = append(all, b.Rows()...)
	if _, err := sh1.Next(e.ctx); err != nil {
		t.Fatal(err)
	}
	uncommittedPos := sh1.Pos()
	sh1.Crash()
	if sh1.Pos() != sh1.Checkpoint() || sh1.Pos() == uncommittedPos {
		t.Fatalf("crash did not rewind: pos %d, checkpoint %d", sh1.Pos(), sh1.Checkpoint())
	}
	all = append(all, drainCommitted(t, e.ctx, sh1)...)

	for _, sh := range shards[2:] {
		all = append(all, drainCommitted(t, e.ctx, sh)...)
	}

	checkNoDuplicates(t, all)
	wantDigest, wantRows, err := verify.SnapshotDigest(e.ctx, e.c, e.table, sess.SnapshotTS())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != wantRows {
		t.Fatalf("session delivered %d rows, snapshot has %d", len(all), wantRows)
	}
	if got := verify.DigestStamped(all); got != wantDigest {
		t.Fatalf("session digest %x != snapshot digest %x", got, wantDigest)
	}

	// Stats count deliveries: the crashed reader's uncommitted batch is
	// delivered twice, so Rows exceeds the unique row count.
	st := sess.Stats()
	if st.Splits != 1 || st.Resumes == 0 || st.Batches == 0 || st.Rows < int64(wantRows) {
		t.Fatalf("stats = %+v", st)
	}
}

// TestPredicateProjectionPushdown pushes a filter and a projection into
// the leaf scans: delivered rows match the query engine's answer and
// unprojected columns come back NULL.
func TestPredicateProjectionPushdown(t *testing.T) {
	e := newRSEnv(t, "d.pushdown")
	e.seal(t, 0, 100)
	e.live(t, 1, 30)

	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{
		Shards:  2,
		Where:   "qty < 10",
		Columns: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	rows, err := sess.ReadAll(e.ctx)
	if err != nil {
		t.Fatal(err)
	}

	eng := query.New(e.c, e.r.BigMeta, e.r.Net, e.r.Router(), query.Config{})
	res, err := eng.QueryAt(e.ctx, "SELECT COUNT(*) FROM d.pushdown WHERE qty < 10", sess.SnapshotTS())
	if err != nil {
		t.Fatal(err)
	}
	want := res.Rows()[0][0].AsInt64()
	if int64(len(rows)) != want {
		t.Fatalf("session delivered %d rows, query counts %d", len(rows), want)
	}
	sc := sess.Schema()
	ki := sc.FieldIndex("k")
	bi := sc.FieldIndex("bucket")
	for _, r := range rows {
		if ki >= len(r.Row.Values) || r.Row.Values[ki].IsNull() {
			t.Fatal("projected column k missing")
		}
		if bi < len(r.Row.Values) && !r.Row.Values[bi].IsNull() {
			t.Fatal("unprojected column bucket leaked through projection")
		}
	}
}

// TestBigMetadataPruning converts to ROS and opens a session with a
// partition predicate: pruned assignments never reach the shards, and
// the result still matches the engine.
func TestBigMetadataPruning(t *testing.T) {
	e := newRSEnv(t, "d.prune")
	for day := 0; day < 3; day++ {
		e.seal(t, day, 80)
	}
	opt := optimizer.New(optimizer.DefaultConfig(), e.c, e.r.Net, e.r.Router(), e.r.Colossus, e.r.Clock)
	if _, err := opt.ConvertTable(e.ctx, e.table); err != nil {
		t.Fatal(err)
	}
	e.r.HeartbeatAll(e.ctx, false)

	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{
		Shards: 2,
		Where:  "ts < TIMESTAMP '2023-10-02 00:00:00'",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	st := sess.Stats()
	if st.AssignmentsPruned == 0 {
		t.Fatalf("partition predicate pruned nothing: %+v", st)
	}
	rows, err := sess.ReadAll(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 80 {
		t.Fatalf("pruned session delivered %d rows, want 80", len(rows))
	}
}

// oracleRows is the row API as reference: client.ReadAll at the
// snapshot, filtered row by row with sql.Eval and the MinSeq rule.
func oracleRows(t testing.TB, e *rsEnv, snap truetime.Timestamp, where string, minSeq int64) []rowenc.Stamped {
	t.Helper()
	all, plan, err := e.c.ReadAll(e.ctx, e.table, snap)
	if err != nil {
		t.Fatal(err)
	}
	var pred sql.Expr
	if where != "" {
		stmt, err := sql.Parse(fmt.Sprintf("SELECT * FROM %s WHERE %s", e.table, where))
		if err != nil {
			t.Fatal(err)
		}
		if err := sql.Resolve(stmt, plan.Schema); err != nil {
			t.Fatal(err)
		}
		pred = stmt.(*sql.SelectStmt).Where
	}
	var kept []rowenc.Stamped
	for _, r := range all {
		if r.Seq <= minSeq {
			continue
		}
		if pred != nil {
			v, err := sql.Eval(pred, r.Row)
			if err != nil {
				t.Fatal(err)
			}
			if !sql.Truthy(v) {
				continue
			}
		}
		kept = append(kept, r)
	}
	return kept
}

// TestVectorizedServingParity: with the table converted to ROS, the
// serving path (cache vectors -> code-space filter -> EncodeVectors)
// must deliver exactly the rows the row API yields when filtered row
// by row, while reporting code-space skips in the session stats.
func TestVectorizedServingParity(t *testing.T) {
	e := newRSEnv(t, "d.vecparity")
	for day := 0; day < 3; day++ {
		e.seal(t, day, 80)
	}
	opt := optimizer.New(optimizer.DefaultConfig(), e.c, e.r.Net, e.r.Router(), e.r.Colossus, e.r.Clock)
	if _, err := opt.ConvertTable(e.ctx, e.table); err != nil {
		t.Fatal(err)
	}
	e.r.HeartbeatAll(e.ctx, false)
	e.r.ReadSessions.SetBatchRows(48)

	// bucket has 4 distinct values over 240 rows: dictionary-encoded in
	// ROS, so the predicate decides per code and skips rows wholesale.
	const where = "bucket = 'b-1'"
	vec, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2, Where: where})
	if err != nil {
		t.Fatal(err)
	}
	defer vec.Close(e.ctx)
	vecRows, err := vec.ReadAll(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	vst := vec.Stats()
	if vst.RowsCodeSkipped == 0 {
		t.Fatalf("columnar serving skipped nothing in code space: %+v", vst)
	}
	if vst.RowsCodeSkipped+vst.RowsDecoded != vst.RowsScanned {
		t.Fatalf("skip accounting: skipped %d + decoded %d != scanned %d",
			vst.RowsCodeSkipped, vst.RowsDecoded, vst.RowsScanned)
	}

	rowRows := oracleRows(t, e, vec.SnapshotTS(), where, 0)
	if len(vecRows) == 0 || len(vecRows) != len(rowRows) {
		t.Fatalf("session served %d rows, row API %d", len(vecRows), len(rowRows))
	}
	if verify.DigestStamped(vecRows) != verify.DigestStamped(rowRows) {
		t.Fatal("session and row-API oracle disagree")
	}
}

// TestVectorizedComparisonParity: a WHERE clause that compares a column
// with a literal, on either side, is decided by the typed comparison
// kernel on typed columns (the sealed and live WOS files' qty and k, a
// ROS file's typed pages) and generically elsewhere, and every shape
// serves exactly the rows the row API keeps under sql.Eval.
func TestVectorizedComparisonParity(t *testing.T) {
	e := newRSEnv(t, "d.cmpparity")
	e.seal(t, 0, 80)
	opt := optimizer.New(optimizer.DefaultConfig(), e.c, e.r.Net, e.r.Router(), e.r.Colossus, e.r.Clock)
	if _, err := opt.ConvertTable(e.ctx, e.table); err != nil {
		t.Fatal(err)
	}
	e.seal(t, 1, 80)
	e.live(t, 2, 40)
	e.r.HeartbeatAll(e.ctx, false)
	e.r.ReadSessions.SetBatchRows(32)
	for _, where := range []string{
		"qty >= 40", "40 > qty", "qty = 7", "qty <> 7", "7 <= qty AND qty < 60",
		"k < 'k-1-5'", "'k-1-5' >= k", "bucket = 'b-2'", "qty > 2.5", "qty = NULL",
	} {
		sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2, Where: where})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sess.ReadAll(e.ctx)
		sess.Close(e.ctx)
		if err != nil {
			t.Fatalf("WHERE %s: %v", where, err)
		}
		want := oracleRows(t, e, sess.SnapshotTS(), where, 0)
		if len(got) != len(want) || verify.DigestStamped(got) != verify.DigestStamped(want) {
			t.Fatalf("WHERE %s: session served %d rows, row API keeps %d, or their digests differ", where, len(got), len(want))
		}
	}
}

// TestSessionShortArityRoundTrip: rows written before a schema change
// keep their arity through a read session — the batch's `__arity`
// column carries it across the wire — while a predicate on the added
// column sees them as NULL, for the sealed-WOS file and a live tail
// alike.
func TestSessionShortArityRoundTrip(t *testing.T) {
	e := newRSEnv(t, "d.arity")
	write := func(seal bool) {
		t.Helper()
		s, err := e.c.CreateStream(e.ctx, e.table, meta.Unbuffered)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := e.c.GetSchema(e.ctx, e.table)
		if err != nil {
			t.Fatal(err)
		}
		old := rsRow(0, len(sc.Fields)) // the writer's schema knowledge may lag: 4 values
		if _, err := s.Append(e.ctx, []schema.Row{old}); err != nil {
			t.Fatal(err)
		}
		if len(sc.Fields) == 4 {
			if _, err := e.c.UpdateSchema(e.ctx, e.table, &schema.Field{Name: "tag", Kind: schema.KindString, Mode: schema.Nullable}); err != nil {
				t.Fatal(err)
			}
			e.r.HeartbeatAll(e.ctx, false) // the Stream Server learns the new schema (§5.4.1)
		}
		wide := rsRow(1, 7)
		wide.Values = append(wide.Values, schema.String("tagged"))
		if _, err := s.Append(e.ctx, []schema.Row{wide}); err != nil {
			t.Fatal(err)
		}
		e.clock.Advance(2 * time.Millisecond)
		if seal {
			if _, err := s.Finalize(e.ctx); err != nil {
				t.Fatal(err)
			}
			e.r.HeartbeatAll(e.ctx, false)
		}
	}
	write(true)
	write(false)

	for _, tc := range []struct {
		where string
		want  string // arities in sequence order
	}{
		{"", "[4 5 4 5]"},
		{"tag IS NULL", "[4 4]"},
		{"tag = 'tagged'", "[5 5]"},
	} {
		for pass := 0; pass < 2; pass++ { // cold, then served from the cache
			sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2, Where: tc.where})
			if err != nil {
				t.Fatal(err)
			}
			rows, err := sess.ReadAll(e.ctx)
			sess.Close(e.ctx)
			if err != nil {
				t.Fatal(err)
			}
			var arities []int
			for _, r := range rows {
				arities = append(arities, len(r.Row.Values))
				if n := len(r.Row.Values); n == 5 && r.Row.Values[4].AsString() != "tagged" {
					t.Fatalf("WHERE %q: wide row lost its added field: %v", tc.where, r.Row.Values)
				}
			}
			if got := fmt.Sprint(arities); got != tc.want {
				t.Fatalf("WHERE %q pass %d: arities %s, want %s", tc.where, pass, got, tc.want)
			}
		}
	}
}

// TestSplitExhaustedShard: once a shard's assignments are all served,
// Split must decline rather than move served work.
func TestSplitExhaustedShard(t *testing.T) {
	e := newRSEnv(t, "d.nosplit")
	e.seal(t, 0, 40)
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	sh := sess.Shards()[0]
	drainCommitted(t, e.ctx, sh)
	ns, err := sess.Split(e.ctx, sh)
	if err != nil {
		t.Fatal(err)
	}
	if ns != nil {
		t.Fatal("split of an exhausted shard produced a new shard")
	}
}

// TestClientMetrics: consumption feeds the client-wide counters.
func TestClientMetrics(t *testing.T) {
	e := newRSEnv(t, "d.metrics")
	e.seal(t, 0, 60)
	e.seal(t, 1, 60)
	e.r.ReadSessions.SetBatchRows(16)
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	shards := sess.Shards()
	if _, err := shards[0].Next(e.ctx); err != nil {
		t.Fatal(err)
	}
	shards[0].Commit()
	shards[0].Crash()
	drainCommitted(t, e.ctx, shards[0])
	drainCommitted(t, e.ctx, shards[1])
	if _, err := sess.Split(e.ctx, shards[0]); err != nil {
		t.Fatal(err)
	}
	m := e.c.Metrics()
	if m.ReadBatches == 0 || m.ReadBatchBytes == 0 {
		t.Fatalf("batch counters empty: %+v", m)
	}
	if m.CheckpointResumes == 0 {
		t.Fatalf("crash+redrain must count a resume: %+v", m)
	}
	srv := e.r.ReadSessions.Stats()
	if srv.SessionsOpened == 0 || srv.BatchesServed == 0 {
		t.Fatalf("server stats empty: %+v", srv)
	}
}

// TestUnknownSessionErrors: streams against closed or unknown sessions
// fail with a code, not a hang.
func TestUnknownSessionErrors(t *testing.T) {
	e := newRSEnv(t, "d.unknown")
	e.seal(t, 0, 10)
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh := sess.Shards()[0]
	if err := sess.Close(e.ctx); err != nil {
		t.Fatal(err)
	}
	_, err = sh.Next(e.ctx)
	if err == nil || !strings.Contains(err.Error(), "UNKNOWN_SESSION") {
		t.Fatalf("read after close: %v", err)
	}
}

// TestLeaseBlocksGC is the regression test for "fragment deleted while
// a session shard still references it": with a session open at a
// pre-conversion snapshot, both GC paths (groomer and heartbeat) must
// defer physical deletion of the retired WOS fragments; after the
// session closes they proceed.
func TestLeaseBlocksGC(t *testing.T) {
	e := newRSEnv(t, "d.lease")
	e.seal(t, 0, 80)

	retention := truetime.Timestamp((2 * time.Second).Nanoseconds())
	for _, task := range e.r.SMSTasks {
		task.SetRetention(retention)
	}

	// Pin a session at "now": its snapshot predates the conversion below,
	// so its plan references the WOS fragments.
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}

	opt := optimizer.New(optimizer.DefaultConfig(), e.c, e.r.Net, e.r.Router(), e.r.Colossus, e.r.Clock)
	res, err := opt.ConvertTable(e.ctx, e.table)
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsConverted == 0 {
		t.Fatal("conversion found no candidates")
	}

	countFiles := func() int {
		paths, err := e.r.Colossus.Cluster("alpha").List("wos/" + string(e.table) + "/")
		if err != nil {
			t.Fatal(err)
		}
		return len(paths)
	}
	before := countFiles()

	// Past retention, within the lease TTL. Run every GC path.
	e.clock.Advance(3 * time.Second)
	for _, addr := range e.r.SMSAddrs() {
		if _, err := e.r.Net.Unary(e.ctx, addr, wire.MethodGC, &wire.GCRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	e.r.HeartbeatAll(e.ctx, true)
	e.r.HeartbeatAll(e.ctx, false)
	if got := countFiles(); got != before {
		t.Fatalf("GC deleted files under an open session: %d -> %d", before, got)
	}

	// The open session still reads its full pre-conversion snapshot.
	rows, err := sess.ReadAll(e.ctx)
	if err != nil {
		t.Fatalf("drain under GC pressure: %v", err)
	}
	if len(rows) != 80 {
		t.Fatalf("session delivered %d rows, want 80", len(rows))
	}

	// Close releases the lease; the same GC passes now reclaim the
	// retired WOS files.
	if err := sess.Close(e.ctx); err != nil {
		t.Fatal(err)
	}
	e.clock.Advance(time.Second)
	for _, addr := range e.r.SMSAddrs() {
		if _, err := e.r.Net.Unary(e.ctx, addr, wire.MethodGC, &wire.GCRequest{}); err != nil {
			t.Fatal(err)
		}
	}
	e.r.HeartbeatAll(e.ctx, true)
	e.r.HeartbeatAll(e.ctx, false)
	if got := countFiles(); got >= before {
		t.Fatalf("GC did not reclaim after session close: %d files, had %d", got, before)
	}
}

// TestExpiredLeaseUnblocksGC: a session whose holder disappears (never
// closes) only blocks GC until its lease TTL lapses.
func TestExpiredLeaseUnblocksGC(t *testing.T) {
	e := newRSEnv(t, "d.expiry")
	e.seal(t, 0, 40)
	retention := truetime.Timestamp((2 * time.Second).Nanoseconds())
	for _, task := range e.r.SMSTasks {
		task.SetRetention(retention)
	}
	if _, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 1}); err != nil {
		t.Fatal(err)
	}
	opt := optimizer.New(optimizer.DefaultConfig(), e.c, e.r.Net, e.r.Router(), e.r.Colossus, e.r.Clock)
	if _, err := opt.ConvertTable(e.ctx, e.table); err != nil {
		t.Fatal(err)
	}
	countFiles := func() int {
		paths, err := e.r.Colossus.Cluster("alpha").List("wos/" + string(e.table) + "/")
		if err != nil {
			t.Fatal(err)
		}
		return len(paths)
	}
	before := countFiles()
	// Far past both retention and the abandoned session's lease TTL
	// (30s): GC must proceed.
	e.clock.Advance(40 * time.Second)
	e.r.HeartbeatAll(e.ctx, true)
	e.r.HeartbeatAll(e.ctx, false)
	if got := countFiles(); got >= before {
		t.Fatalf("expired lease still blocks GC: %d files, had %d", got, before)
	}
}

// TestMinSeqIncrementalRead: a session opened with MinSeq = S delivers
// exactly the rows with storage sequence > S — the delta an incremental
// consumer reads after applying everything up to S — matching the row
// API filtered by sequence, with checkpoint resume offsets counting
// only served rows.
func TestMinSeqIncrementalRead(t *testing.T) {
	e := newRSEnv(t, "d.minseq")
	e.seal(t, 0, 60)

	base, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	baseRows, err := base.ReadAll(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	base.Close(e.ctx)
	if len(baseRows) != 60 {
		t.Fatalf("base read delivered %d rows, want 60", len(baseRows))
	}
	var applied int64
	for _, r := range baseRows {
		if r.Seq > applied {
			applied = r.Seq
		}
	}

	e.seal(t, 1, 40)
	e.live(t, 2, 15)

	dsess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2, MinSeq: applied})
	if err != nil {
		t.Fatal(err)
	}
	defer dsess.Close(e.ctx)
	delta, err := dsess.ReadAll(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) != 55 {
		t.Fatalf("delta read delivered %d rows, want 55", len(delta))
	}
	for _, r := range delta {
		if r.Seq <= applied {
			t.Fatalf("delta surfaced already-applied seq %d (<= %d)", r.Seq, applied)
		}
	}
	checkNoDuplicates(t, delta)

	// The row API filtered by sequence agrees.
	if verify.DigestStamped(oracleRows(t, e, dsess.SnapshotTS(), "", applied)) != verify.DigestStamped(delta) {
		t.Fatal("MinSeq session and row-API oracle disagree")
	}

	// Crash/resume over a filtered shard: offsets are positions in the
	// filtered sequence, so a resumed reader sees exactly the
	// uncommitted suffix.
	e.r.ReadSessions.SetBatchRows(16)
	defer e.r.ReadSessions.SetBatchRows(512)
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 1, MinSeq: applied})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	sh := sess.Shards()[0]
	b, err := sh.Next(e.ctx)
	if err != nil {
		t.Fatal(err)
	}
	sh.Commit()
	all := append([]rowenc.Stamped(nil), b.Rows()...)
	if _, err := sh.Next(e.ctx); err != nil {
		t.Fatal(err)
	}
	sh.Crash()
	all = append(all, drainCommitted(t, e.ctx, sh)...)
	checkNoDuplicates(t, all)
	if verify.DigestStamped(all) != verify.DigestStamped(delta) {
		t.Fatal("crash/resume over a MinSeq session lost or repeated rows")
	}
}
