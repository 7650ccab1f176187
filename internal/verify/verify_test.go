package verify_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/schema"
	"vortex/internal/verify"
)

func tSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"k"},
	}
}

func row(i int) schema.Row {
	return schema.NewRow(
		schema.Timestamp(time.Date(2024, 6, 9, 0, 0, i, 0, time.UTC)),
		schema.String(fmt.Sprintf("k-%d", i)),
		schema.Int64(int64(i)),
	)
}

func setup(t testing.TB) (*core.Region, *client.Client, *verify.Ledger, context.Context) {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	if err := c.CreateTable(ctx, "d.v", tSchema()); err != nil {
		t.Fatal(err)
	}
	return r, c, verify.NewLedger(), ctx
}

// openWriter opens an exactly-once writer on d.v whose durable batches
// go into ledger.
func openWriter(t testing.TB, ctx context.Context, c *client.Client, ledger *verify.Ledger) *client.Writer {
	t.Helper()
	w := client.NewWriter(c, "d.v")
	if err := w.Open(ctx, meta.Unbuffered); err != nil {
		t.Fatal(err)
	}
	w.Applied = ledger.Applied(w)
	return w
}

// mustAck appends rows through w and fails unless they were acknowledged.
func mustAck(t testing.TB, ctx context.Context, w *client.Writer, rows ...schema.Row) {
	t.Helper()
	if o, err := w.Append(ctx, rows); o != client.Acked {
		t.Fatalf("append at %d: outcome %d: %v", w.Next(), o, err)
	}
}

func TestVerifyCleanIngestion(t *testing.T) {
	_, c, ledger, ctx := setup(t)
	w := openWriter(t, ctx, c, ledger)
	for i := 0; i < 30; i += 3 {
		mustAck(t, ctx, w, row(i), row(i+1), row(i+2))
	}
	rep, err := verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean ingestion failed verification: %s", rep)
	}
	if rep.AppendsChecked != 10 || rep.RowsChecked != 30 {
		t.Fatalf("report = %s", rep)
	}
}

func TestVerifyAcrossConversionExactlyOnce(t *testing.T) {
	// §6.3: "each record is reported as converted exactly once from WOS
	// to ROS" and "the output records are consistent with the input".
	r, c, ledger, ctx := setup(t)
	w := openWriter(t, ctx, c, ledger)
	for i := 0; i < 40; i++ {
		mustAck(t, ctx, w, row(i))
	}
	if _, err := w.Rotate(ctx); err != nil {
		t.Fatal(err)
	}
	r.HeartbeatAll(ctx, false)
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	res, err := opt.ConvertTable(ctx, "d.v")
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsConverted == 0 {
		t.Fatal("nothing converted; test is vacuous")
	}
	rep, err := verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-conversion verification failed: %s", rep)
	}
	// Recluster and verify again.
	if _, err := opt.Recluster(ctx, "d.v", true); err != nil {
		t.Fatal(err)
	}
	rep, err = verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-recluster verification failed: %s", rep)
	}
}

func TestVerifyDetectsMissingRows(t *testing.T) {
	_, c, ledger, ctx := setup(t)
	w := openWriter(t, ctx, c, ledger)
	mustAck(t, ctx, w, row(1))
	// Forge a ledger entry for an append that never happened: the
	// verifier must flag it missing.
	ledger.Record(verify.AppendRecord{
		Table: "d.v", Stream: "s-forged", Offset: 0, RowCount: 2,
		FirstSeq: 1, RowHashes: []uint32{1, 2},
	})
	rep, err := verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Missing) != 1 {
		t.Fatalf("missing rows not detected: %s", rep)
	}
}

func TestVerifyDetectsOverlapAndPhantoms(t *testing.T) {
	_, c, ledger, ctx := setup(t)
	s, err := c.CreateStream(ctx, "d.v", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	// Untracked append: its rows are phantoms from the ledger's view.
	if _, err := s.Append(ctx, []schema.Row{row(9)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// Two forged ledger entries claiming the same stream offsets.
	ledger.Record(verify.AppendRecord{Table: "d.v", Stream: "s-x", Offset: 0, RowCount: 5, FirstSeq: 100, RowHashes: make([]uint32, 5)})
	ledger.Record(verify.AppendRecord{Table: "d.v", Stream: "s-x", Offset: 3, RowCount: 5, FirstSeq: 200, RowHashes: make([]uint32, 5)})
	rep, err := verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OverlappingAppends != 1 {
		t.Fatalf("overlap not detected: %s", rep)
	}
	if rep.PhantomRows != 1 {
		t.Fatalf("phantom row not detected: %s", rep)
	}
}

func TestVerifyDetectsContentMismatch(t *testing.T) {
	_, c, ledger, ctx := setup(t)
	w := openWriter(t, ctx, c, ledger)
	mustAck(t, ctx, w, row(1))
	// Corrupt the ledger's recorded hash: the stored row no longer
	// matches what was (supposedly) acknowledged.
	recs := ledger.Appends()
	bad := recs[0]
	bad.RowHashes = []uint32{0xDEADBEEF}
	l2 := verify.NewLedger()
	l2.Record(bad)
	rep, err := verify.VerifyTable(ctx, c, "d.v", l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ContentMismatches) != 1 {
		t.Fatalf("content mismatch not detected: %s", rep)
	}
}

func TestVerifyResolvesUncertainAckByContent(t *testing.T) {
	// An append whose ack was lost is recorded with FirstSeq=-1; the
	// verifier must find its rows by content instead of by sequence.
	_, c, ledger, ctx := setup(t)
	w := openWriter(t, ctx, c, ledger)
	for i := 0; i < 9; i += 3 {
		mustAck(t, ctx, w, row(i), row(i+1), row(i+2))
	}
	// Rewrite the middle batch as uncertain.
	recs := ledger.Appends()
	l2 := verify.NewLedger()
	for i, r := range recs {
		if i == 1 {
			r.FirstSeq = -1
		}
		l2.Record(r)
	}
	rep, err := verify.VerifyTable(ctx, c, "d.v", l2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("uncertain ack not resolved: %s", rep)
	}
	if rep.ResolvedUncertain != 1 {
		t.Fatalf("ResolvedUncertain = %d, want 1 (%s)", rep.ResolvedUncertain, rep)
	}
}

// TestWriterRecordsLandedBatchAsUncertain drops the ack of a pinned
// append whose rows are durable; the writer's retry at the same offset
// answers WRONG_OFFSET, so the ledger holds the batch as an uncertain
// ack and the verifier finds its rows by content, not as phantoms.
func TestWriterRecordsLandedBatchAsUncertain(t *testing.T) {
	sched := chaos.NewSchedule().FailAt(chaos.PointRPCResponse, "*/Append", 2)
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	copts := client.DefaultOptions()
	copts.ForceUnary = true
	copts.Retry.MaxAttempts = 1 // the lost ack surfaces to the writer
	c := r.NewClient(copts)
	ctx := context.Background()
	if err := c.CreateTable(ctx, "d.v", tSchema()); err != nil {
		t.Fatal(err)
	}
	ledger := verify.NewLedger()
	w := openWriter(t, ctx, c, ledger)
	mustAck(t, ctx, w, row(0), row(1))
	if o, err := w.Append(ctx, []schema.Row{row(2), row(3)}); o != client.InDoubt {
		t.Fatalf("append with its ack dropped: outcome %d (%v), want in doubt", o, err)
	}
	if o, err := w.Resolve(ctx); o != client.Landed {
		t.Fatalf("resolve: outcome %d (%v), want landed", o, err)
	}
	mustAck(t, ctx, w, row(4))

	recs := ledger.Appends()
	if len(recs) != 3 || recs[1].FirstSeq != -1 || recs[1].Offset != 2 || recs[1].RowCount != 2 {
		t.Fatalf("ledger %+v, want the landed batch as an uncertain ack at offset 2", recs)
	}
	rep, err := verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() || rep.ResolvedUncertain != 1 || rep.PhantomRows != 0 || rep.RowsChecked != 5 {
		t.Fatalf("landed batch not accounted for: %s, resolved uncertain %d", rep, rep.ResolvedUncertain)
	}
}

func TestVerifyUncertainAckWithNoMatchIsMissing(t *testing.T) {
	_, c, ledger, ctx := setup(t)
	w := openWriter(t, ctx, c, ledger)
	mustAck(t, ctx, w, row(0))
	// Uncertain record whose content exists nowhere: genuinely lost rows.
	ledger.Record(verify.AppendRecord{
		Table: "d.v", Stream: "s-lost", Offset: 5, RowCount: 2,
		FirstSeq: -1, RowHashes: []uint32{0xAAAA, 0xBBBB},
	})
	rep, err := verify.VerifyTable(ctx, c, "d.v", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Missing) != 1 || rep.ResolvedUncertain != 0 {
		t.Fatalf("lost uncertain append not flagged missing: %s", rep)
	}
}

func TestSnapshotDigestStableAndSensitive(t *testing.T) {
	r, c, _, ctx := setup(t)
	s, err := c.CreateStream(ctx, "d.v", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	at := r.Clock.Commit()
	d1, n1, err := verify.SnapshotDigest(ctx, c, "d.v", at)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 10 {
		t.Fatalf("digest saw %d rows, want 10", n1)
	}
	// More appends after the snapshot must not change it.
	if _, err := s.Append(ctx, []schema.Row{row(10)}, client.AtOffset(10)); err != nil {
		t.Fatal(err)
	}
	d2, n2, err := verify.SnapshotDigest(ctx, c, "d.v", at)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 || n2 != n1 {
		t.Fatalf("snapshot digest moved: (%x,%d) -> (%x,%d)", d1, n1, d2, n2)
	}
	// A later snapshot that includes the new row must differ.
	d3, n3, err := verify.SnapshotDigest(ctx, c, "d.v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if n3 != 11 || d3 == d1 {
		t.Fatalf("later snapshot not distinguished: (%x,%d)", d3, n3)
	}
}
