package chaos_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/verify"
)

// ---- Schedule unit behaviour ----------------------------------------

func TestFailAtTriggersOnExactOccurrences(t *testing.T) {
	s := chaos.NewSchedule().FailAt(chaos.PointRPCRequest, "ss-a/Append", 2, 4)
	ctx := context.Background()
	var got []int
	for i := 1; i <= 5; i++ {
		if err := s.Inject(ctx, chaos.PointRPCRequest, "ss-a/Append"); err != nil {
			if !errors.Is(err, chaos.ErrInjected) {
				t.Fatalf("occurrence %d: %v", i, err)
			}
			got = append(got, i)
		}
	}
	if fmt.Sprint(got) != "[2 4]" {
		t.Fatalf("failed occurrences %v, want [2 4]", got)
	}
	if n := len(s.Events()); n != 2 {
		t.Fatalf("%d events logged, want 2", n)
	}
}

func TestTargetPatterns(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		pattern string
		target  string
		match   bool
	}{
		{"", "anything/Anywhere", true},
		{"ss-a-0", "ss-a-0/Append", true},
		{"ss-a-0", "ss-a-1/Append", false},
		{"ss-a-0/Append", "ss-a-0/Append", true},
		{"ss-a-0/Append", "ss-a-0/Flush", false},
		{"*/Append", "ss-b-2/Append", true},
		{"*/Append", "ss-b-2/Flush", false},
	}
	for _, c := range cases {
		s := chaos.NewSchedule().FailAt(chaos.PointRPCRequest, c.pattern, 1)
		err := s.Inject(ctx, chaos.PointRPCRequest, c.target)
		if got := err != nil; got != c.match {
			t.Errorf("pattern %q vs %q: injected=%v want %v", c.pattern, c.target, got, c.match)
		}
	}
}

func TestClusterOutageWindow(t *testing.T) {
	s := chaos.NewSchedule().ClusterOutage("beta", 2, 3)
	ctx := context.Background()
	if s.ClusterOut("beta") {
		t.Fatal("out before first write")
	}
	if err := s.Inject(ctx, chaos.PointColossusWrite, "beta"); err != nil {
		t.Fatalf("write 1 should pass: %v", err)
	}
	if !s.ClusterOut("beta") {
		t.Fatal("next write falls in the window; ClusterOut must be true")
	}
	for i := 2; i <= 3; i++ {
		if err := s.Inject(ctx, chaos.PointColossusWrite, "beta"); !errors.Is(err, chaos.ErrInjected) {
			t.Fatalf("write %d should fail: %v", i, err)
		}
	}
	if s.ClusterOut("beta") {
		t.Fatal("window passed; ClusterOut must be false")
	}
	if err := s.Inject(ctx, chaos.PointColossusWrite, "beta"); err != nil {
		t.Fatalf("write 4 should pass: %v", err)
	}
}

func TestManualOutageTogglesWithoutConsumingRules(t *testing.T) {
	s := chaos.NewSchedule().ClusterOutage("beta", 5, 5)
	ctx := context.Background()
	s.StartClusterOutage("beta")
	if !s.ClusterOut("beta") {
		t.Fatal("manual outage not visible")
	}
	if err := s.Inject(ctx, chaos.PointColossusWrite, "beta"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("write during manual outage: %v", err)
	}
	s.EndClusterOutage("beta")
	if s.ClusterOut("beta") {
		t.Fatal("outage not healed")
	}
	// Occurrence-window rules still count their own matches: the manual
	// outage above consumed one occurrence (seen=1); three more writes
	// reach the scheduled 5th.
	for i := 0; i < 3; i++ {
		if err := s.Inject(ctx, chaos.PointColossusWrite, "beta"); err != nil {
			t.Fatalf("healed write %d: %v", i, err)
		}
	}
	if err := s.Inject(ctx, chaos.PointColossusWrite, "beta"); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("scheduled 5th write should fail: %v", err)
	}
}

func TestDelayHonoursContext(t *testing.T) {
	s := chaos.NewSchedule().DelayAt(chaos.PointRPCRequest, "a/B", 10*time.Second, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Inject(ctx, chaos.PointRPCRequest, "a/B")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay ignored the context deadline")
	}
}

// ---- End-to-end: deterministic injection log ------------------------

// chaosWorkload drives a fixed single-writer workload against a region
// whose schedule injects RPC failures, a latency spike, a Stream Server
// crash, and a Colossus outage window, and returns the injection log.
func chaosWorkload(t *testing.T) string {
	t.Helper()
	sched := chaos.NewSchedule().
		FailAt(chaos.PointRPCResponse, "*/Append", 2).
		DelayAt(chaos.PointRPCRequest, "*/Append", time.Millisecond, 4).
		CrashStreamServerAt("ss-alpha-0", 6).
		ClusterOutage("beta", 12, 15)
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	copts := client.DefaultOptions()
	copts.ForceUnary = true
	c := r.NewClient(copts)
	ctx := context.Background()
	sc := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
	}}
	if err := c.CreateTable(ctx, "d.t", sc); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		row := schema.NewRow(schema.String("k"), schema.Int64(int64(i)))
		if _, err := s.Append(ctx, []schema.Row{row}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	return sched.LogString()
}

func TestInjectionLogIsDeterministic(t *testing.T) {
	first := chaosWorkload(t)
	second := chaosWorkload(t)
	if first == "" {
		t.Fatal("empty injection log: the schedule never fired")
	}
	if first != second {
		t.Fatalf("same schedule, same workload, different logs:\n--- run 1\n%s--- run 2\n%s", first, second)
	}
	for _, want := range []string{"crash", "outage", "delay", "fail"} {
		if !strings.Contains(first, want) {
			t.Errorf("log lacks a %q event:\n%s", want, first)
		}
	}
}

// ---- End-to-end: exactly-once under crash + cluster outage ----------

// TestExactlyOnceUnderCrashAndOutage is the acceptance scenario: a
// Stream Server is killed mid-append AND one Colossus cluster goes out
// for a window; every acknowledged row must be present exactly once and
// both the degraded-write and retry counters must be nonzero.
func TestExactlyOnceUnderCrashAndOutage(t *testing.T) {
	sched := chaos.NewSchedule().CrashStreamServerAt("ss-alpha-0", 5)
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	sc := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
	}}
	if err := c.CreateTable(ctx, "d.t", sc); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	ledger := verify.NewLedger()
	ts := verify.Track(s, ledger)

	appendN := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := schema.NewRow(schema.String(fmt.Sprintf("k-%04d", i)), schema.Int64(int64(i)))
			if _, err := ts.Append(ctx, []schema.Row{row}, client.AtOffset(int64(i))); err != nil {
				t.Fatalf("append %d: %v", i, err)
			}
		}
	}

	// Phase 1: the first placement lands on ss-alpha-0, which the
	// schedule kills on its 5th append. The client retries the lost
	// attempt, rotates to a fresh streamlet elsewhere, and continues.
	appendN(0, 8)

	// Phase 2: cluster beta goes out. Dual-homed writes fail on the
	// beta replica and the server falls back to durable single-cluster
	// commits (§5.6).
	sched.StartClusterOutage("beta")
	appendN(8, 16)

	// Phase 3: beta heals; writes continue (already-degraded streamlets
	// stay single-homed, new ones are placed dual-homed again).
	sched.EndClusterOutage("beta")
	r.RestartStreamServer("ss-alpha-0")
	appendN(16, 24)

	report, err := verify.VerifyTable(ctx, c, "d.t", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("verification failed under chaos:\n%s", report)
	}
	if report.AppendsChecked != 24 {
		t.Fatalf("checked %d appends, want 24", report.AppendsChecked)
	}

	m := c.Metrics()
	if m.Retries == 0 {
		t.Fatal("no retries recorded; the crash should have forced at least one")
	}
	if m.Rotations == 0 {
		t.Fatal("no rotations recorded; the crash should have forced one")
	}
	var degraded int64
	for _, srv := range r.StreamServers {
		degraded += srv.Stats().DegradedWrites
	}
	if degraded == 0 {
		t.Fatal("no degraded single-cluster writes during the beta outage")
	}
	log := sched.LogString()
	if !strings.Contains(log, "crash") || !strings.Contains(log, "outage") {
		t.Fatalf("injection log missing crash/outage events:\n%s", log)
	}
}

// TestLostResponseIsReplayedNotDuplicated pins the retransmission-memo
// path: the server commits the write, the response is dropped, and the
// client's flagged retry must receive the original ack — not a
// WRONG_OFFSET, and the rows must not be doubled.
func TestLostResponseIsReplayedNotDuplicated(t *testing.T) {
	sched := chaos.NewSchedule().FailAt(chaos.PointRPCResponse, "*/Append", 3)
	cfg := core.DefaultConfig()
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	copts := client.DefaultOptions()
	copts.ForceUnary = true
	c := r.NewClient(copts)
	ctx := context.Background()
	sc := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
	}}
	if err := c.CreateTable(ctx, "d.t", sc); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	ledger := verify.NewLedger()
	ts := verify.Track(s, ledger)
	for i := 0; i < 6; i++ {
		row := schema.NewRow(schema.String(fmt.Sprintf("k-%d", i)), schema.Int64(int64(i)))
		if _, err := ts.Append(ctx, []schema.Row{row}, client.AtOffset(int64(i))); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	report, err := verify.VerifyTable(ctx, c, "d.t", ledger, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.OK() {
		t.Fatalf("lost response broke exactly-once:\n%s", report)
	}
	if c.Metrics().Retries == 0 {
		t.Fatal("the dropped response should have forced a retry")
	}
	_ = r
}
