package client_test

import (
	"context"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// benchRows is the size of each of the three pieces of the benchmark
// table: rows converted to ROS, rows left as a sealed WOS fragment, and
// rows on a stream that stays writable.
const benchRows = 4096

var benchSink int

// BenchmarkScanBatch measures one leaf scan plus its consumption, per
// fragment kind and per consumer shape (ROADMAP open item 1). Run with
// -benchmem: allocs/op is the number to watch. Everything but the live
// tail is served from a warm read cache.
//
//	flat ROS     five flat Sales columns — the cache's encoded vectors
//	nested ROS   every column, including the repeated salesOrderLines struct
//	sealed WOS   a finalized streamlet's file, every column
//	live WOS     a writable streamlet's tail file: read, decoded and
//	             commit-checked on every scan
//	flat ... WOS the same two under flat ROS's five columns: the live file
//	             decodes those and steps over the rest on every scan
//	... Events   the same two on the flat Events table, whose every
//	             column is a typed one (Sales' nested column is not)
//
//	cursor       walk the visible rows through a RowCursor
//	encode       Vectors + IdentityVectors through wire.EncodeVectors, the
//	             frame a read session serves
func BenchmarkScanBatch(b *testing.B) {
	r := core.NewRegion(core.DefaultConfig())
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = 256 << 20
	c := r.NewClient(opts)
	ctx := context.Background()
	const table, events = meta.TableID("d.sales"), meta.TableID("d.events")
	if err := c.CreateTable(ctx, table, workload.SalesSchema()); err != nil {
		b.Fatal(err)
	}
	if err := c.CreateTable(ctx, events, workload.EventsSchema()); err != nil {
		b.Fatal(err)
	}
	gen, egen := workload.NewGen(1, 0), workload.NewGen(1, 64)
	at := time.Unix(1700000000, 0)
	write := func(table meta.TableID, seal bool) {
		s, err := c.CreateStream(ctx, table, meta.Unbuffered)
		if err != nil {
			b.Fatal(err)
		}
		for n := 0; n < benchRows; n += 256 {
			rows := gen.SalesRows(0, 256)
			if table == events {
				rows = egen.EventRows(at, 256, time.Second)
				at = at.Add(256 * time.Second)
			}
			if _, err := s.Append(ctx, rows); err != nil {
				b.Fatal(err)
			}
		}
		if seal {
			if _, err := s.Finalize(ctx); err != nil {
				b.Fatal(err)
			}
			r.HeartbeatAll(ctx, false)
		}
	}
	write(table, true)
	convertTable(b, r, c, ctx, table)
	write(table, true)
	write(table, false)
	write(events, true)
	write(events, false)

	flat := map[string]bool{"orderTimestamp": true, "salesOrderKey": true, "customerKey": true, "totalSale": true, "currencyKey": true}
	kinds := []struct {
		name       string
		table      meta.TableID
		format     meta.Format
		live       bool
		projection map[string]bool
	}{
		{"flatROS", table, meta.ROS, false, flat},
		{"nestedROS", table, meta.ROS, false, nil},
		{"sealedWOS", table, meta.WOS, false, nil},
		{"liveWOS", table, meta.WOS, true, nil},
		{"flatSealedWOS", table, meta.WOS, false, flat},
		{"flatLiveWOS", table, meta.WOS, true, flat},
		{"sealedWOSEvents", events, meta.WOS, false, nil},
		{"liveWOSEvents", events, meta.WOS, true, nil},
	}
	consumers := []struct {
		name string
		use  func(*client.ColBatch) int
	}{
		{"cursor", func(cb *client.ColBatch) int {
			n := 0
			for cur := cb.Cursor(cb.Sel); cur.Next(); {
				n += len(cur.Row().Values)
			}
			return n
		}},
		{"encode", func(cb *client.ColBatch) int {
			id := cb.IdentityVectors(cb.Sel)
			cols, sel := cb.Vectors(cb.Sel)
			return len(wire.EncodeVectors(append(id[:], cols...), sel))
		}},
	}
	for _, k := range kinds {
		plan, err := c.Plan(ctx, k.table, 0)
		if err != nil {
			b.Fatal(err)
		}
		plan.Projection = k.projection
		var as []client.Assignment
		for _, a := range plan.Assignments {
			if a.Frag.Format == k.format && a.Live == k.live {
				as = append(as, a)
			}
		}
		for _, consumer := range consumers {
			b.Run(k.name+"/"+consumer.name, func(b *testing.B) {
				scan := func() (rows int) {
					for _, a := range as {
						cb, err := c.ScanBatch(ctx, plan, a)
						if err != nil {
							b.Fatal(err)
						}
						rows += cb.NumVisible()
						benchSink += consumer.use(cb)
					}
					return rows
				}
				if rows := scan(); rows != benchRows { // also warms the cache
					b.Fatalf("%d assignments hold %d rows, want %d", len(as), rows, benchRows)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					scan()
				}
				b.ReportMetric(float64(b.N)*benchRows/b.Elapsed().Seconds(), "rows/s")
			})
		}
	}
}
