package readsession_test

import (
	"context"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/workload"
)

// BenchmarkServeChunk times what a read session's server and reader
// spend on one assignment of the seeded benchmark's scan shape — Sales
// rows over the five flat columns it projects, filtered by
// currencyKey = 840 — in the 512-row frames a session serves: the leaf
// scan's filter, each frame's encode and its decode into a Batch. ROS
// is one converted file of 4 096 rows, sealedWOS a finalized stream's
// file of as many; both are served from a warm read cache. Run with
// -benchmem: ns/op and allocs/op are the numbers to watch.
func BenchmarkServeChunk(b *testing.B) {
	const table, rows = meta.TableID("d.sales"), 4096
	r := core.NewRegion(core.DefaultConfig())
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = 256 << 20
	c := r.NewClient(opts)
	ctx := context.Background()
	if err := c.CreateTable(ctx, table, workload.SalesSchema()); err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGen(1, 0)
	seal := func() {
		s, err := c.CreateStream(ctx, table, meta.Unbuffered)
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < rows; n += 256 {
			if _, err := s.Append(ctx, gen.SalesRows(0, 256)); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := s.Finalize(ctx); err != nil {
			b.Fatal(err)
		}
		r.HeartbeatAll(ctx, false)
	}
	seal()
	time.Sleep(12 * time.Millisecond) // past clock uncertainty, so the conversion lists the fragment
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, table); err != nil {
		b.Fatal(err)
	}
	seal()

	plan, err := c.Plan(ctx, table, 0)
	if err != nil {
		b.Fatal(err)
	}
	plan.Projection = map[string]bool{"orderTimestamp": true, "salesOrderKey": true, "customerKey": true, "totalSale": true, "currencyKey": true}
	serve, err := r.ReadSessions.ServeFunc(table, plan, "currencyKey = 840")
	if err != nil {
		b.Fatal(err)
	}
	for _, format := range []meta.Format{meta.ROS, meta.WOS} {
		var as []client.Assignment
		for _, a := range plan.Assignments {
			if a.Frag.Format == format && !a.Live {
				as = append(as, a)
			}
		}
		if len(as) == 0 {
			b.Fatalf("no sealed %v assignment", format)
		}
		name := "ROS"
		if format == meta.WOS {
			name = "sealedWOS"
		}
		b.Run(name, func(b *testing.B) {
			served := 0
			for _, a := range as { // warm the read cache
				n, err := serve(ctx, a)
				if err != nil {
					b.Fatal(err)
				}
				served += n
			}
			if served == 0 || served > rows/2 {
				b.Fatalf("served %d of %d rows, want about a third", served, rows)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range as {
					if _, err := serve(ctx, a); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
