package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/schema"
)

// The client library's write/read paths are exercised end-to-end by
// internal/core's integration tests; these pin client-local behaviours:
// adaptive connection choice, pipelining, and plan/scan surfaces.

func env(t *testing.T, opts client.Options) (*core.Region, *client.Client, context.Context) {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(opts)
	ctx := context.Background()
	sc := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
	}}
	if err := c.CreateTable(ctx, "d.t", sc); err != nil {
		t.Fatal(err)
	}
	return r, c, ctx
}

func row(i int) schema.Row {
	return schema.NewRow(schema.String("k"), schema.Int64(int64(i)))
}

func TestAdaptiveConnectionSwitchesToBidi(t *testing.T) {
	r, c, ctx := env(t, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Net.Stats()
	if st.StreamsOpened == 0 {
		t.Fatal("client never switched to a bi-di connection (§5.4.2)")
	}
	if st.UnaryCalls < 3 {
		t.Fatalf("expected early appends over unary, stats = %+v", st)
	}
}

func TestPipelinedAppendsCompleteInOrder(t *testing.T) {
	opts := client.DefaultOptions()
	opts.ForceBidi = true
	_, c, ctx := env(t, opts)
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	var pending []*client.PendingAppend
	for i := 0; i < 20; i++ {
		p, err := s.AppendAsync(ctx, []schema.Row{row(i)}, client.AtOffset(-1))
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, p)
	}
	for i, p := range pending {
		off, err := p.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(i) {
			t.Fatalf("pipelined append %d landed at %d", i, off)
		}
	}
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 20 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestAppendValidatesRowsClientSide(t *testing.T) {
	_, c, ctx := env(t, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	bad := schema.NewRow(schema.Int64(1), schema.Int64(2)) // wrong kind for k
	if _, err := s.Append(ctx, []schema.Row{bad}, client.AtOffset(-1)); err == nil {
		t.Fatal("invalid row accepted")
	}
}

func TestPlanCoversWOSAndDiscoversTail(t *testing.T) {
	_, c, ctx := env(t, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{row(1), row(2)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Plan(ctx, "d.t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) == 0 {
		t.Fatal("no assignments for live tail data")
	}
	if !plan.Assignments[0].Live {
		t.Fatal("tail assignment not marked live")
	}
	got, err := c.Scan(ctx, plan, plan.Assignments[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scanned %d rows", len(got))
	}
	// Provenance for DML: stream offsets assigned densely from 0.
	b, err := c.ScanBatch(ctx, plan, plan.Assignments[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, pr := range b.PosRows() {
		if pr.StreamOffset != int64(i) {
			t.Fatalf("row %d stream offset = %d", i, pr.StreamOffset)
		}
	}
}

func TestReadAllOrdersBySequence(t *testing.T) {
	_, c, ctx := env(t, client.DefaultOptions())
	s1, _ := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	s2, _ := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	for i := 0; i < 5; i++ {
		if _, err := s1.Append(ctx, []schema.Row{row(i)}, client.AtOffset(-1)); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Append(ctx, []schema.Row{row(100 + i)}, client.AtOffset(-1)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Seq <= rows[i-1].Seq {
			t.Fatal("ReadAll not ordered by storage sequence")
		}
	}
}

func TestAttachUnknownStream(t *testing.T) {
	_, c, ctx := env(t, client.DefaultOptions())
	if _, err := c.AttachStream(ctx, "s-nope"); err == nil {
		t.Fatal("attached to a stream that does not exist")
	}
}

func TestAppendTrackedReturnsSeq(t *testing.T) {
	_, c, ctx := env(t, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	_, seq, err := s.AppendTracked(ctx, []schema.Row{row(1), row(2)}, client.AtOffset(0))
	if err != nil {
		t.Fatal(err)
	}
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Seq != seq || rows[1].Seq != seq+1 {
		t.Fatalf("seqs %d,%d vs tracked %d", rows[0].Seq, rows[1].Seq, seq)
	}
}

func TestWrongOffsetDoesNotRetryForever(t *testing.T) {
	_, c, ctx := env(t, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{row(1)}, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Append(ctx, []schema.Row{row(1)}, client.AtOffset(0))
	if !errors.Is(err, client.ErrWrongOffset) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("offset conflict took too long: it must fail fast, not rotate streamlets")
	}
}
