package client_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/schema"
)

func chaosEnv(t *testing.T, sched *chaos.Schedule, opts client.Options) (*core.Region, *client.Client, context.Context) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
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

// TestRotationAfterMidAppendServerFailure kills the serving Stream
// Server on its 3rd append; the client must rotate the streamlet to a
// different server and complete every append.
func TestRotationAfterMidAppendServerFailure(t *testing.T) {
	// The first placement deterministically lands on ss-alpha-0.
	sched := chaos.NewSchedule().CrashStreamServerAt("ss-alpha-0", 3)
	_, c, ctx := chaosEnv(t, sched, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	m := c.Metrics()
	if m.Rotations == 0 {
		t.Fatal("server crash mid-append must rotate the streamlet")
	}
	if m.Retries == 0 {
		t.Fatal("server crash mid-append must be retried")
	}
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("read %d rows, want 6", len(rows))
	}
}

// TestFlushAndFinalizeUnderRetry drops the first FlushStream and the
// first FinalizeStream request; both operations are idempotent at the
// SMS and must succeed through the retry helper.
func TestFlushAndFinalizeUnderRetry(t *testing.T) {
	sched := chaos.NewSchedule().
		FailAt(chaos.PointRPCRequest, "*/FlushStream", 1).
		FailAt(chaos.PointRPCRequest, "*/FinalizeStream", 1)
	_, c, ctx := chaosEnv(t, sched, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Buffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := s.Flush(ctx, 4); err != nil {
		t.Fatalf("flush must survive a dropped request: %v", err)
	}
	n, err := s.Finalize(ctx)
	if err != nil {
		t.Fatalf("finalize must survive a dropped request: %v", err)
	}
	if n != 4 {
		t.Fatalf("finalized row count %d, want 4", n)
	}
	if c.Metrics().SMSRetries == 0 {
		t.Fatal("dropped control-plane requests must be counted as SMS retries")
	}
}

// TestReaderRetriesReconcile drops the reader's first Reconcile request.
// With the second replica unreadable, only the SMS can decide whether
// the live file's final append committed (§7.1). A reconcile is
// idempotent — a FINALIZED record is answered from the record — so the
// scan retries it and returns every row.
func TestReaderRetriesReconcile(t *testing.T) {
	sched := chaos.NewSchedule().FailAt(chaos.PointRPCRequest, "*/Reconcile", 1)
	r, c, ctx := chaosEnv(t, sched, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	r.Colossus.Cluster("beta").SetAvailable(false)
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatalf("a dropped reconcile must be retried: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("read %d rows, want 3", len(rows))
	}
	if !strings.Contains(sched.LogString(), "Reconcile") {
		t.Fatalf("no Reconcile request was dropped: %s", sched.LogString())
	}
}

// TestReplicaFailoverOnRead poisons every Colossus read on the alpha
// cluster after ingest: the replicated read path must fail over to beta
// and serve every row. Chaos is attached after setup so ingest-side
// file creation is unaffected.
func TestReplicaFailoverOnRead(t *testing.T) {
	r, c, ctx := chaosEnv(t, nil, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	r.Colossus.Cluster("alpha").SetChaos(
		chaos.NewSchedule().FailBetween(chaos.PointColossusRead, "alpha", 1, 1<<30))
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatalf("read must fail over to the healthy replica: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("read %d rows, want 5", len(rows))
	}
}

// TestReplicatedReadErrorBothReplicasDown poisons reads on both
// clusters: the read must fail with a ReplicatedReadError that names
// each replica's failure (the §5.6 outage-window diagnosis) and is
// classified retryable, with no replica reported as unknown.
func TestReplicatedReadErrorBothReplicasDown(t *testing.T) {
	r, c, ctx := chaosEnv(t, nil, client.DefaultOptions())
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{row(0)}, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	r.Colossus.SetChaos(chaos.NewSchedule().
		FailBetween(chaos.PointColossusRead, "alpha", 1, 1<<30).
		FailBetween(chaos.PointColossusRead, "beta", 1, 1<<30))
	_, _, err = c.ReadAll(ctx, "d.t", 0)
	if err == nil {
		t.Fatal("read with both replicas down must fail")
	}
	var rre *client.ReplicatedReadError
	if !errors.As(err, &rre) {
		t.Fatalf("error type = %T (%v), want *client.ReplicatedReadError", err, err)
	}
	if len(rre.Unknown) != 0 {
		t.Fatalf("replicas wrongly reported unknown: %v", rre.Unknown)
	}
	if len(rre.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want one per replica", rre.Attempts)
	}
	seen := map[string]bool{}
	for _, a := range rre.Attempts {
		seen[a.Cluster] = true
		if a.Err == nil {
			t.Fatalf("attempt %s carries no cause", a.Cluster)
		}
	}
	if !seen["alpha"] || !seen["beta"] {
		t.Fatalf("attempts name %v, want alpha and beta", rre.Attempts)
	}
}

// TestHedgedAppendDedupes enables aggressive hedging with injected
// latency spikes on appends: hedges fire, and offset pinning plus the
// server's retransmission memo keep the result exactly-once.
func TestHedgedAppendDedupes(t *testing.T) {
	sched := chaos.NewSchedule().
		DelayAt(chaos.PointRPCRequest, "*/Append", 30*time.Millisecond, 2, 5)
	opts := client.DefaultOptions()
	opts.ForceUnary = true
	opts.Retry.HedgeDelay = 2 * time.Millisecond
	_, c, ctx := chaosEnv(t, sched, opts)
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Append(ctx, []schema.Row{row(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if c.Metrics().Hedges == 0 {
		t.Fatal("latency spikes above the hedge delay must trigger hedges")
	}
	rows, _, err := c.ReadAll(ctx, "d.t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("read %d rows, want 8 (hedges must not duplicate)", len(rows))
	}
}
