package dataflow_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/dataflow"
	"vortex/internal/meta"
	"vortex/internal/schema"
)

func eventsSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "key", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PrimaryKey: []string{"key"},
	}
}

func mkRows(n int) []schema.Row {
	rows := make([]schema.Row, n)
	base := time.Date(2024, 6, 9, 0, 0, 0, 0, time.UTC)
	for i := range rows {
		rows[i] = schema.NewRow(
			schema.Timestamp(base.Add(time.Duration(i)*time.Second)),
			schema.String(fmt.Sprintf("key-%04d", i)),
			schema.Int64(int64(i)),
		)
	}
	return rows
}

func setup(t testing.TB) (*core.Region, *client.Client, context.Context) {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	if err := c.CreateTable(ctx, "d.sink", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	return r, c, ctx
}

func verifyExactlyOnce(t *testing.T, c *client.Client, ctx context.Context, n int) {
	t.Helper()
	rows, _, err := c.ReadAll(ctx, "d.sink", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Fatalf("table has %d rows, want %d (exactly-once violated)", len(rows), n)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		k := r.Row.Values[1].AsString()
		if seen[k] {
			t.Fatalf("duplicate key %s", k)
		}
		seen[k] = true
	}
}

func TestSinkHappyPath(t *testing.T) {
	_, c, ctx := setup(t)
	res, err := dataflow.WriteTableRows(ctx, c, "d.sink", mkRows(100), dataflow.SinkOptions{
		Partitions: 4, BundleSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsWritten != 100 {
		t.Fatalf("rows written = %d", res.RowsWritten)
	}
	verifyExactlyOnce(t, c, ctx, 100)
}

func TestSinkExactlyOnceUnderZombies(t *testing.T) {
	// Every bundle is delivered three times concurrently (§7.4's zombie
	// workers). Offset validation + atomic state commit must defeat all
	// duplicates.
	_, c, ctx := setup(t)
	res, err := dataflow.WriteTableRows(ctx, c, "d.sink", mkRows(200), dataflow.SinkOptions{
		Partitions:          4,
		BundleSize:          10,
		DuplicateDeliveries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ZombiesDefeated == 0 {
		t.Fatal("no zombies were defeated; the scenario did not exercise duplicates")
	}
	verifyExactlyOnce(t, c, ctx, 200)
}

func TestSinkExactlyOnceUnderCrashes(t *testing.T) {
	// Every second bundle's first delivery dies between append and
	// commit; the runner re-delivers. The re-delivered append hits
	// WRONG_OFFSET (rows already durable) and commits the flush.
	_, c, ctx := setup(t)
	res, err := dataflow.WriteTableRows(ctx, c, "d.sink", mkRows(120), dataflow.SinkOptions{
		Partitions:       3,
		BundleSize:       10,
		CrashAfterAppend: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsWritten != 120 {
		t.Fatalf("rows written = %d", res.RowsWritten)
	}
	verifyExactlyOnce(t, c, ctx, 120)
}

func TestSinkCrashesAndZombiesTogether(t *testing.T) {
	_, c, ctx := setup(t)
	_, err := dataflow.WriteTableRows(ctx, c, "d.sink", mkRows(150), dataflow.SinkOptions{
		Partitions:          5,
		BundleSize:          7,
		DuplicateDeliveries: 1,
		CrashAfterAppend:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	verifyExactlyOnce(t, c, ctx, 150)
}

func TestSinkVisibilityIsAtomicPerFlush(t *testing.T) {
	// Before the flush stage runs, appended rows are invisible. (We
	// exercise this by checking the final count only after WriteTableRows,
	// plus an empty-input run leaving the table untouched.)
	_, c, ctx := setup(t)
	if _, err := dataflow.WriteTableRows(ctx, c, "d.sink", nil, dataflow.SinkOptions{}); err != nil {
		t.Fatal(err)
	}
	rows, _, err := c.ReadAll(ctx, "d.sink", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("empty pipeline produced %d rows", len(rows))
	}
}

func TestAttachStreamResumesLength(t *testing.T) {
	_, c, ctx := setup(t)
	s, err := c.CreateStream(ctx, "d.sink", meta.Buffered)
	if err != nil {
		t.Fatal(err)
	}
	rows := mkRows(3)
	if _, err := s.Append(ctx, rows, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	// A second handle to the same stream must see the correct offset
	// semantics: appending at 0 fails, at 3 succeeds.
	h2, err := c.AttachStream(ctx, s.Info().ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Append(ctx, rows, client.AtOffset(0)); err == nil {
		t.Fatal("stale offset accepted through second handle")
	}
	if _, err := h2.Append(ctx, mkRows(1), client.AtOffset(3)); err != nil {
		t.Fatal(err)
	}
}

func TestSinkResolvesAnAppendPastTheClientsRetries(t *testing.T) {
	// The client gets one attempt per append, so a lost ack and a
	// dropped request both reach the sink as a batch in doubt. It
	// retries the batch at the same offset: the first lands (WRONG_OFFSET
	// after the rows were durable), the second is acknowledged.
	sched := chaos.NewSchedule().
		FailAt(chaos.PointRPCResponse, "*/Append", 2).
		FailAt(chaos.PointRPCRequest, "*/Append", 5)
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	copts := client.DefaultOptions()
	copts.ForceUnary = true
	copts.Retry.MaxAttempts = 1
	c := r.NewClient(copts)
	ctx := context.Background()
	if err := c.CreateTable(ctx, "d.sink", eventsSchema()); err != nil {
		t.Fatal(err)
	}
	res, err := dataflow.WriteTableRows(ctx, c, "d.sink", mkRows(100), dataflow.SinkOptions{
		Partitions: 2, BundleSize: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(sched.Events()); n != 2 {
		t.Fatalf("%d faults injected, want 2:\n%s", n, sched.LogString())
	}
	if res.RowsWritten != 100 {
		t.Fatalf("rows written = %d", res.RowsWritten)
	}
	verifyExactlyOnce(t, c, ctx, 100)
}

func TestSinkContinuesItsStreams(t *testing.T) {
	// A run handed the streams of the one before appends behind their
	// rows instead of opening new ones; a stream finalized in between is
	// replaced, and its rows stay.
	_, c, ctx := setup(t)
	rows := mkRows(90)
	opts := dataflow.SinkOptions{Partitions: 2, BundleSize: 8}
	first, err := dataflow.WriteTableRows(ctx, c, "d.sink", rows[:30], opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Streams = first.Streams
	second, err := dataflow.WriteTableRows(ctx, c, "d.sink", rows[30:60], opts)
	if err != nil {
		t.Fatal(err)
	}
	for p, ss := range second.Streams {
		if ss.ID != first.Streams[p].ID || ss.Next <= first.Streams[p].Next {
			t.Fatalf("partition %d: stream %+v after %+v, want the same stream, further along", p, ss, first.Streams[p])
		}
	}
	verifyExactlyOnce(t, c, ctx, 60)

	s, err := c.AttachStream(ctx, second.Streams[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	opts.Streams = second.Streams
	third, err := dataflow.WriteTableRows(ctx, c, "d.sink", rows[60:], opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.Streams[0].ID == second.Streams[0].ID || third.Streams[1].ID != second.Streams[1].ID {
		t.Fatalf("streams %+v after %+v, want only the finalized one replaced", third.Streams, second.Streams)
	}
	verifyExactlyOnce(t, c, ctx, 90)
}
