package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/verify"
	"vortex/internal/workload"
)

// ChaosResult is one chaos-scenario run: a fixed fault schedule (Stream
// Server crash, Colossus cluster outage window, dropped responses,
// latency spikes) applied to an offset-pinned append workload, with the
// resilience counters and the exactly-once verdict.
type ChaosResult struct {
	Appends        int64
	Rows           int64
	Elapsed        time.Duration
	Injected       int
	Retries        int64
	Rotations      int64
	Hedges         int64
	HedgeWins      int64
	SMSRetries     int64
	DegradedWrites int64
	Latency        *metrics.Histogram
	Report         *verify.Report
	Schedule       string
}

// Chaos runs the resilience scenario from §5.6/§7.3: while `appends`
// offset-pinned appends stream in, the schedule crashes the serving
// Stream Server, takes one Colossus cluster offline for a window
// (forcing degraded single-cluster commits), drops append responses
// (forcing retransmission-memo replays) and injects latency spikes
// (forcing hedged sends). The run fails unless the table verifies
// exactly-once afterwards.
func Chaos(ctx context.Context, appends int) (*ChaosResult, error) {
	if appends < 16 {
		appends = 16
	}
	n := int64(appends)
	sched := chaos.NewSchedule().
		CrashStreamServerAt("ss-alpha-0", n/4).
		ClusterOutage("beta", n/2, n/2+n/8).
		FailAt(chaos.PointRPCResponse, "*/Append", n/8).
		DelayAt(chaos.PointRPCRequest, "*/Append", 25*time.Millisecond, n/3, 2*n/3)

	cfg := core.DefaultConfig()
	cfg.Seed = 1
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	opts := client.DefaultOptions()
	opts.ForceUnary = true // hedging applies to pinned unary appends
	opts.Retry.HedgeDelay = 2 * time.Millisecond
	opts.Seed = 1
	c := r.NewClient(opts)

	table := meta.TableID("bench.chaos")
	if err := c.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		return nil, err
	}
	s, err := c.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		return nil, err
	}
	ledger := verify.NewLedger()
	ts := verify.Track(s, ledger)
	gen := workload.NewGen(1, 100)

	start := time.Now()
	var next int64
	var totalRows int64
	for i := 0; i < appends; i++ {
		rows := gen.EventRows(time.Now(), 3, time.Microsecond)
		if _, err := ts.Append(ctx, rows, client.AtOffset(next)); err != nil {
			return nil, fmt.Errorf("append %d: %w", i, err)
		}
		next += int64(len(rows))
		totalRows += int64(len(rows))
	}
	elapsed := time.Since(start)

	report, err := verify.VerifyTable(ctx, c, table, ledger, 0)
	if err != nil {
		return nil, err
	}
	var degraded int64
	for _, srv := range r.StreamServers {
		degraded += srv.Stats().DegradedWrites
	}
	m := c.Metrics()
	return &ChaosResult{
		Appends:        int64(appends),
		Rows:           totalRows,
		Elapsed:        elapsed,
		Injected:       len(sched.Events()),
		Retries:        m.Retries,
		Rotations:      m.Rotations,
		Hedges:         m.Hedges,
		HedgeWins:      m.HedgeWins,
		SMSRetries:     m.SMSRetries,
		DegradedWrites: degraded,
		Latency:        m.AppendLatency,
		Report:         report,
		Schedule:       sched.LogString(),
	}, nil
}

// PrintChaos renders the chaos scenario.
func PrintChaos(w io.Writer, res *ChaosResult) {
	fmt.Fprintln(w, "§5.6/§7.3 — chaos: server crash + cluster outage under the retry policy")
	fmt.Fprintln(w, "(crash mid-append, one Colossus cluster offline for a window, dropped responses, latency spikes)")
	verdict := "exactly-once OK"
	if !res.Report.OK() {
		verdict = "FAILED: " + res.Report.String()
	}
	table := [][]string{{
		fmt.Sprintf("%d", res.Appends),
		fmt.Sprintf("%d", res.Rows),
		fmt.Sprintf("%d", res.Injected),
		fmt.Sprintf("%d", res.Retries),
		fmt.Sprintf("%d", res.Rotations),
		fmt.Sprintf("%d/%d", res.HedgeWins, res.Hedges),
		fmt.Sprintf("%d", res.SMSRetries),
		fmt.Sprintf("%d", res.DegradedWrites),
		fmtMS(res.Latency.Quantile(0.5)),
		fmtMS(res.Latency.Quantile(0.99)),
	}}
	fmt.Fprint(w, metrics.FormatTable(
		[]string{"appends", "rows", "injected", "retries", "rotations", "hedge w/l", "sms retries", "degraded", "p50", "p99"},
		table))
	fmt.Fprintf(w, "verify: %s (%d appends, %d rows checked)\n", verdict, res.Report.AppendsChecked, res.Report.RowsChecked)
	fmt.Fprintln(w, "injected events:")
	fmt.Fprintln(w, res.Schedule)
}
