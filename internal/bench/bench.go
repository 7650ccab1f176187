// Package bench implements the experiment harness that regenerates the
// paper's evaluation (DESIGN.md §2): Figure 7 (append latency
// percentiles over time), Figure 8 (latency by table throughput bucket),
// the §5.4.5 compression claims, the §5.4.2 unary-vs-bidi trade, the
// Figure 5 WOS-vs-ROS scan behaviour and the Figure 6 reclustering
// behaviour. cmd/vortex-bench prints the tables; bench_test.go runs
// reduced versions under `go test -bench`.
package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/latencymodel"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/workload"
)

// newRegion builds a region with the paper-calibrated latency profile.
func newRegion(seed int64) *core.Region {
	cfg := core.DefaultConfig()
	cfg.Latency = latencymodel.ProductionLike()
	cfg.Seed = seed
	cfg.StreamServersPerCluster = 4
	return core.NewRegion(cfg)
}

func fmtMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// Fig7Result is one Figure 7 reproduction.
type Fig7Result struct {
	Points  []metrics.PercentilePoint
	Overall *metrics.Histogram
	Appends int64
}

// Fig7 reproduces Figure 7: many concurrent streams appending
// continuously; per-window p50/p90/p95/p99 of append latency. The paper
// reports p50 ≈ 10 ms and p99 ≈ 30 ms, flat over a two-week window; the
// reproduction compresses the window to `duration` with `writers`
// concurrent streams.
func Fig7(ctx context.Context, duration time.Duration, writers int, window time.Duration) (*Fig7Result, error) {
	r := newRegion(7)
	c := r.NewClient(client.DefaultOptions())
	table := meta.TableID("bench.fig7")
	if err := c.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		return nil, err
	}
	series := metrics.NewSeries(window, time.Now())
	var appends int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(duration)
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGen(int64(w), 500)
			s, err := c.CreateStream(ctx, table, meta.Unbuffered)
			if err != nil {
				errCh <- err
				return
			}
			for time.Now().Before(deadline) {
				rows := gen.EventRows(time.Now(), 16, time.Millisecond)
				start := time.Now()
				if _, err := s.Append(ctx, rows); err != nil {
					errCh <- err
					return
				}
				lat := time.Since(start)
				series.Record(start, lat)
				mu.Lock()
				appends++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return &Fig7Result{Points: series.Points(), Overall: series.Overall(), Appends: appends}, nil
}

// PrintFig7 renders the Figure 7 reproduction.
func PrintFig7(w io.Writer, res *Fig7Result) {
	fmt.Fprintln(w, "Figure 7 — Vortex Append latency distribution over time")
	fmt.Fprintln(w, "(paper: p50 ≈ 10ms, p90 ≈ 20ms, p95 ≈ 22ms, p99 ≈ 30ms, flat over the window)")
	rows := make([][]string, 0, len(res.Points))
	for _, p := range res.Points {
		rows = append(rows, []string{
			fmt.Sprintf("t+%ds", int(p.Window.Seconds())),
			fmt.Sprintf("%d", p.Count),
			fmtMS(p.P50), fmtMS(p.P90), fmtMS(p.P95), fmtMS(p.P99),
		})
	}
	fmt.Fprint(w, metrics.FormatTable([]string{"window", "appends", "p50", "p90", "p95", "p99"}, rows))
	qs := res.Overall.Quantiles(0.5, 0.9, 0.95, 0.99)
	fmt.Fprintf(w, "overall: appends=%d p50=%s p90=%s p95=%s p99=%s\n\n",
		res.Appends, fmtMS(qs[0]), fmtMS(qs[1]), fmtMS(qs[2]), fmtMS(qs[3]))
}

// Fig8Row is one throughput bucket's measured distribution.
type Fig8Row struct {
	Bucket   workload.Bucket
	Achieved float64 // bytes/sec
	Hist     *metrics.Histogram
}

// Fig8 reproduces Figure 8: a fleet of tables in throughput buckets from
// <1MB/s to ≥1GB/s (scaled 100×); append latency percentiles per bucket.
// The paper's claim: p99 stays under ~30 ms across all buckets.
func Fig8(ctx context.Context, duration time.Duration) ([]Fig8Row, error) {
	r := newRegion(8)
	c := r.NewClient(client.DefaultOptions())
	buckets := workload.Figure8Buckets()
	out := make([]Fig8Row, len(buckets))
	var wg sync.WaitGroup
	errCh := make(chan error, len(buckets)*16)
	for bi, b := range buckets {
		table := meta.TableID(fmt.Sprintf("bench.fig8_%d", bi))
		if err := c.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
			return nil, err
		}
		hist := metrics.NewLatencyHistogram()
		out[bi] = Fig8Row{Bucket: b, Hist: hist}
		var sent int64
		var sentMu sync.Mutex
		perWriter := b.BytesPerSec / int64(b.Writers)
		for w := 0; w < b.Writers; w++ {
			wg.Add(1)
			go func(bi, w int, table meta.TableID, batchBytes int, rate int64) {
				defer wg.Done()
				gen := workload.NewGen(int64(bi*100+w), 500)
				cl := r.NewClient(client.DefaultOptions())
				s, err := cl.CreateStream(ctx, table, meta.Unbuffered)
				if err != nil {
					errCh <- err
					return
				}
				// ~220 bytes per encoded event row. Batches are generated
				// once, outside the measurement loop: the experiment
				// measures the storage write path, not row generation.
				rowsPerBatch := batchBytes / 220
				if rowsPerBatch < 1 {
					rowsPerBatch = 1
				}
				rows := gen.EventRows(time.Now(), rowsPerBatch, time.Microsecond)
				interval := time.Duration(float64(batchBytes) / float64(rate) * float64(time.Second))
				deadline := time.Now().Add(duration)
				next := time.Now()
				for time.Now().Before(deadline) {
					if d := time.Until(next); d > 0 {
						time.Sleep(d)
					}
					next = next.Add(interval)
					start := time.Now()
					if _, err := s.Append(ctx, rows); err != nil {
						errCh <- err
						return
					}
					out[bi].Hist.Record(time.Since(start))
					sentMu.Lock()
					sent += int64(batchBytes)
					sentMu.Unlock()
				}
				sentMu.Lock()
				out[bi].Achieved = float64(sent) / duration.Seconds()
				sentMu.Unlock()
			}(bi, w, table, b.BatchBytes, perWriter)
		}
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	return out, nil
}

// PrintFig8 renders the Figure 8 reproduction.
func PrintFig8(w io.Writer, rows []Fig8Row) {
	fmt.Fprintln(w, "Figure 8 — Append latency distribution by table append rate")
	fmt.Fprintln(w, "(paper: p99 < 30ms from <1MB/s through >=1GB/s, mild growth with rate; rates scaled 100x)")
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		if r.Hist.Count() == 0 {
			continue
		}
		qs := r.Hist.Quantiles(0.5, 0.9, 0.95, 0.99)
		table = append(table, []string{
			r.Bucket.Label,
			fmt.Sprintf("%.0fKB/s", r.Achieved/1024),
			fmt.Sprintf("%d", r.Hist.Count()),
			fmtMS(qs[0]), fmtMS(qs[1]), fmtMS(qs[2]), fmtMS(qs[3]),
		})
	}
	fmt.Fprint(w, metrics.FormatTable([]string{"bucket", "achieved", "appends", "p50", "p90", "p95", "p99"}, table))
	fmt.Fprintln(w)
}
