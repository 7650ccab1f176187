package optimizer_test

import (
	"context"
	"fmt"
	"testing"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/schema"
	"vortex/internal/workload"
)

// loadSealed appends rows to table in 50-row appends dealt round-robin
// over two streams, finalizes both and heartbeats: what the seeded
// benchmark's scan workloads convert.
func loadSealed(tb testing.TB, r *core.Region, c *client.Client, table meta.TableID, rows []schema.Row) {
	tb.Helper()
	ctx := context.Background()
	var streams [2]*client.Stream
	for i := range streams {
		s, err := c.CreateStream(ctx, table, meta.Unbuffered)
		if err != nil {
			tb.Fatal(err)
		}
		streams[i] = s
	}
	for i, k := 0, 0; i < len(rows); i, k = i+50, k+1 {
		if _, err := streams[k%2].Append(ctx, rows[i:min(i+50, len(rows))], client.AtOffset(-1)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, s := range streams {
		if _, err := s.Finalize(ctx); err != nil {
			tb.Fatal(err)
		}
	}
	r.HeartbeatAll(ctx, true)
}

// churnedOrders is a flat primary-key table's change log: n INSERTs,
// then a quarter as many UPSERTs and DELETEs of earlier keys.
func churnedOrders(n int) []schema.Row {
	rows := make([]schema.Row, 0, n+n/4)
	for i := 0; i < n; i++ {
		rows = append(rows, orderRow(i%4, i/4, fmt.Sprintf("C-%03d", i%300)))
	}
	for i := 0; i < n/4; i++ {
		r := rows[(i*7919)%n].Clone()
		if i%5 == 0 {
			rows = append(rows, r.WithChange(schema.ChangeDelete))
			continue
		}
		r.Values[3] = schema.Int64(int64(-i))
		rows = append(rows, r.WithChange(schema.ChangeUpsert))
	}
	return rows
}

// BenchmarkConvertTable times one ConvertTable call over a table loaded
// the way the seeded benchmark loads its scan tables (54 000 Sales rows,
// 256 KiB fragments), at the file sizes of `scan` (4096) and
// `scan_pressure` (512), and over a flat primary-key change log. Each
// iteration converts a fresh region; loading it is off the clock.
func BenchmarkConvertTable(b *testing.B) {
	gen := workload.NewGen(5, 300)
	var sales []schema.Row
	for i := 0; i < 54000; i += 50 {
		sales = append(sales, gen.SalesRows(i/50%4, 50)...)
	}
	for _, bc := range []struct {
		name   string
		sc     *schema.Schema
		rows   []schema.Row
		target int64
	}{
		{"Sales/512", workload.SalesSchema(), sales, 512},
		{"Sales/4096", workload.SalesSchema(), sales, 4096},
		{"Orders/4096", ordersSchema(), churnedOrders(40000), 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := core.DefaultConfig()
				cfg.MaxFragmentBytes = 256 << 10
				r := core.NewRegion(cfg)
				c := r.NewClient(client.DefaultOptions())
				if err := c.CreateTable(ctx, "d.bench", bc.sc); err != nil {
					b.Fatal(err)
				}
				loadSealed(b, r, c, "d.bench", bc.rows)
				ocfg := optimizer.DefaultConfig()
				ocfg.TargetROSRows = bc.target
				opt := optimizer.New(ocfg, c, r.Net, r.Router(), r.Colossus, r.Clock)
				b.StartTimer()
				res, err := opt.ConvertTable(ctx, "d.bench")
				b.StopTimer()
				if err != nil || res.FragmentsConverted == 0 || res.RowsConverted == 0 {
					b.Fatalf("conversion = %+v, %v", res, err)
				}
				b.ReportMetric(float64(res.RowsConverted), "rows")
			}
		})
	}
}
