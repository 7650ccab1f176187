// Benchmarks regenerating the paper's evaluation, one per experiment in
// DESIGN.md §2, plus the ablation benches it calls out. The full-scale
// reproductions live in cmd/vortex-bench; these run reduced versions so
// `go test -bench=.` exercises every path and reports the headline
// numbers. Real latency injection (Figure 7/8) uses the calibrated model
// with wall-clock sleeps, so those benches report model milliseconds.
package vortex

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"vortex/internal/bench"
	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/latencymodel"
	"vortex/internal/meta"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// Benchmark_Fig7_AppendLatency reproduces Figure 7 at reduced duration:
// concurrent streams appending under the calibrated latency model.
// Reported metric: overall p50/p99 in ns/op-style custom metrics.
func Benchmark_Fig7_AppendLatency(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := bench.Fig7(ctx, 2*time.Second, 16, 500*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		p50 := res.Overall.Quantile(0.50)
		p99 := res.Overall.Quantile(0.99)
		b.ReportMetric(float64(p50)/1e6, "p50_ms")
		b.ReportMetric(float64(p99)/1e6, "p99_ms")
		b.ReportMetric(float64(res.Appends), "appends")
	}
}

// Benchmark_Fig8_LatencyByThroughput reproduces Figure 8 at reduced
// duration: the throughput-bucket fleet.
func Benchmark_Fig8_LatencyByThroughput(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig8(ctx, 2*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		bench.PrintFig8(&buf, rows)
		if len(rows) > 0 && rows[len(rows)-1].Hist.Count() > 0 {
			b.ReportMetric(float64(rows[len(rows)-1].Hist.Quantile(0.99))/1e6, "top_bucket_p99_ms")
		}
	}
}

// BenchmarkCompressionRatio reproduces the §5.4.5 claims.
func BenchmarkCompressionRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Compression(5000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Ratio, "typical_ratio")
		b.ReportMetric(rows[len(rows)-1].Ratio, "repetitive_ratio")
	}
}

// BenchmarkUnaryVsBidi reproduces the §5.4.2 connection-type trade.
func BenchmarkUnaryVsBidi(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := bench.UnaryVsBidi(ctx, 50, 500)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(float64(r.ConnectionSetups), r.Mode+"_setups")
		}
	}
}

// BenchmarkScanWOSvsROS reproduces the Figure 5 behaviour.
func BenchmarkScanWOSvsROS(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		scan, _, err := bench.WOSvsROS(ctx, 4000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(scan[0].Elapsed.Microseconds()), "wos_scan_us")
		b.ReportMetric(float64(scan[1].Elapsed.Microseconds()), "ros_scan_us")
	}
}

// BenchmarkReclustering reproduces the Figure 6 behaviour.
func BenchmarkReclustering(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		steps, err := bench.Recluster(ctx, 3, 1000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(steps[len(steps)-2].Ratio, "ratio_before")
		b.ReportMetric(steps[len(steps)-1].Ratio, "ratio_after")
		b.ReportMetric(steps[len(steps)-1].PrunedPct, "pruned_pct")
	}
}

// ---- ablation benches (design choices called out in DESIGN.md §2) ----

func ingestRegion(b *testing.B) (*core.Region, *client.Client, context.Context) {
	b.Helper()
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	if err := c.CreateTable(ctx, "b.t", workload.EventsSchema()); err != nil {
		b.Fatal(err)
	}
	return r, c, ctx
}

// BenchmarkAppendBufferSize ablates the 2MB write-buffering choice
// (§5.4.4): bytes through the storage write path per batch size.
func BenchmarkAppendBufferSize(b *testing.B) {
	for _, batchRows := range []int{1, 16, 256, 2048} {
		b.Run(fmt.Sprintf("rows=%d", batchRows), func(b *testing.B) {
			_, c, ctx := ingestRegion(b)
			s, err := c.CreateStream(ctx, "b.t", meta.Unbuffered)
			if err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGen(1, 100)
			rows := gen.EventRows(time.Now(), batchRows, time.Microsecond)
			payload := wire.AppendBlock(nil, rows)
			b.SetBytes(int64(len(payload)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Append(ctx, rows); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelinedVsSerialAppends ablates append pipelining (§4.2.2)
// under the latency model: pipelined appends hide replication latency.
func BenchmarkPipelinedVsSerialAppends(b *testing.B) {
	profile := latencymodel.ProductionLike()
	mk := func() (*client.Client, *client.Stream, context.Context) {
		cfg := core.DefaultConfig()
		cfg.Latency = profile
		cfg.Seed = 1
		r := core.NewRegion(cfg)
		opts := client.DefaultOptions()
		opts.ForceBidi = true
		c := r.NewClient(opts)
		ctx := context.Background()
		if err := c.CreateTable(ctx, "b.t", workload.EventsSchema()); err != nil {
			b.Fatal(err)
		}
		s, err := c.CreateStream(ctx, "b.t", meta.Unbuffered)
		if err != nil {
			b.Fatal(err)
		}
		return c, s, ctx
	}
	gen := workload.NewGen(1, 100)
	rows := gen.EventRows(time.Now(), 8, time.Microsecond)
	const batches = 16

	b.Run("serial", func(b *testing.B) {
		_, s, ctx := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for k := 0; k < batches; k++ {
				if _, err := s.Append(ctx, rows); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("pipelined", func(b *testing.B) {
		_, s, ctx := mk()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pending := make([]*client.PendingAppend, 0, batches)
			for k := 0; k < batches; k++ {
				p, err := s.AppendAsync(ctx, rows)
				if err != nil {
					b.Fatal(err)
				}
				pending = append(pending, p)
			}
			for _, p := range pending {
				if _, err := p.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkBlockEnvelope ablates the decompress-and-verify guard
// (§5.4.5): the full seal path vs raw Snappy.
func BenchmarkBlockEnvelope(b *testing.B) {
	gen := workload.NewGen(1, 100)
	payload := wire.AppendBlock(nil, gen.SalesRows(0, 2000))
	crc := blockenc.Checksum(payload)
	sealer := blockenc.NewSealer(blockenc.NewKeyring())
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sealer.Seal(payload, crc, blockenc.SystemKey); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplicationFactor ablates dual-cluster synchronous
// replication (§5.6): append latency with max-of-two sampling vs one.
func BenchmarkReplicationFactor(b *testing.B) {
	s := latencymodel.NewSampler(latencymodel.ProductionLike(), 99)
	b.Run("single-cluster", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += s.ColossusWrite(64 << 10)
		}
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "model_ms")
	})
	b.Run("dual-cluster", func(b *testing.B) {
		var total time.Duration
		for i := 0; i < b.N; i++ {
			total += s.ReplicatedWrite(64 << 10)
		}
		b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "model_ms")
	})
}

// BenchmarkUpsertMergeRead measures keyed-read resolution (§4.2.6).
func BenchmarkUpsertMergeRead(b *testing.B) {
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	sc := workload.SalesSchema()
	sc.PrimaryKey = []string{"salesOrderKey"}
	if err := c.CreateTable(ctx, "b.cdc", sc); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGen(1, 50)
	s, err := c.CreateStream(ctx, "b.cdc", meta.Unbuffered)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rows := gen.SalesRows(0, 100)
		for j := range rows {
			rows[j] = rows[j].WithChange(Upsert)
		}
		if _, err := s.Append(ctx, rows); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.ReadAll(ctx, "b.cdc", 0); err != nil {
			b.Fatal(err)
		}
	}
}
