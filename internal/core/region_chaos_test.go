package core

import (
	"strings"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/verify"
)

// TestSMSTaskLossResumesAfterRestart kills the SMS task serving the
// table mid-workload. The control plane is stateless over Spanner
// (§5.2): once the task is re-registered, retried client calls resume
// against the same durable state and no acknowledged row is lost.
func TestSMSTaskLossResumesAfterRestart(t *testing.T) {
	sched := chaos.NewSchedule()
	cfg := DefaultConfig()
	cfg.Chaos = sched
	r := NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	ctx := t.Context()
	mustCreateTable(t, ctx, c, "d.t")

	// Target the task that actually serves this table.
	smsAddr, err := r.Router().SMSFor("d.t")
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	ledger := verify.NewLedger()
	ts := verify.Track(s, ledger)
	for i := 0; i < 4; i++ {
		if _, err := ts.Append(ctx, []schema.Row{eventRow(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}

	// Kill the SMS task on its next RPC; bring it back shortly after,
	// while the client is still inside its backoff loop. Crashing the
	// owning Stream Server at the same time forces the next append to
	// rotate — reconcile + GetWritableStreamlet against the dying task.
	sched.CrashSMSTaskAt(smsAddr, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		r.RestartSMSTask(smsAddr)
	}()
	r.CrashStreamServer(findStreamServer(t, r, "d.t"))
	for i := 4; i < 8; i++ {
		if _, err := ts.Append(ctx, []schema.Row{eventRow(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d after restart: %v", i, err)
		}
	}

	report, err := verify.VerifyTable(ctx, c, "d.t", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("SMS loss broke exactly-once:\n%v", report)
	}
	if c.Metrics().SMSRetries == 0 {
		t.Fatal("no SMS retries recorded; the crash should have forced one")
	}
	if !strings.Contains(sched.LogString(), "crash") {
		t.Fatalf("no crash event logged:\n%s", sched.LogString())
	}
}
