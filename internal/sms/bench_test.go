package sms_test

import (
	"context"
	"fmt"
	"testing"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

// BenchmarkReadView times what every query, read session and conversion
// pays before it reads a byte: the SMS read view of one table holding
// 100 registered 512-row ROS fragments — each record with the filter
// its file carries — and one writable streamlet that has rotated
// through 8 fragments. Run with -benchmem: the view's cost is parsing
// and copying fragment records, so bytes per op is the number to watch.
// The ros=0 cases hold the streamlet alone, and in other=1000 a second
// table holds 1 000 ROS records: a view scans its own table's key
// range, so other=1000 should cost what other=0 does.
func BenchmarkReadView(b *testing.B) {
	for _, c := range []struct{ own, other int }{{100, 0}, {0, 0}, {0, 1000}} {
		b.Run(fmt.Sprintf("ros=%d/other=%d", c.own, c.other), func(b *testing.B) { benchmarkReadView(b, c.own, c.other) })
	}
}

func benchmarkReadView(b *testing.B, own, other int) {
	const table = meta.TableID("d.sales")
	ctx := context.Background()
	cfg := core.DefaultConfig()
	cfg.MaxFragmentBytes = 16 << 10
	r := core.NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	sc := workload.SalesSchema()
	if err := c.CreateTable(ctx, table, sc); err != nil {
		b.Fatal(err)
	}
	addr, err := r.Router().SMSFor(table)
	if err != nil {
		b.Fatal(err)
	}
	if other > 0 {
		const otherTable = meta.TableID("d.other")
		if err := c.CreateTable(ctx, otherTable, sc); err != nil {
			b.Fatal(err)
		}
		otherAddr, err := r.Router().SMSFor(otherTable)
		if err != nil {
			b.Fatal(err)
		}
		infos := make([]meta.FragmentInfo, other)
		for i := range infos {
			infos[i] = meta.FragmentInfo{
				ID: meta.FragmentID(fmt.Sprintf("ros/other-%04d", i)), Table: otherTable, Format: meta.ROS,
				Path: fmt.Sprintf("ros/%s/other-%04d", otherTable, i), Clusters: [2]string{"alpha", "beta"},
				RowCount: 512, Finalized: true, SchemaVersion: sc.Version,
			}
		}
		if _, err := r.Net.Unary(ctx, otherAddr, wire.MethodRegisterConversion, &wire.RegisterConversionRequest{Table: otherTable, New: infos}); err != nil {
			b.Fatal(err)
		}
	}

	gen := workload.NewGen(11, 300)
	var infos []meta.FragmentInfo
	for i := 0; i < own; i++ {
		w := ros.NewWriter(sc)
		for k, row := range gen.SalesRows(0, 512) {
			if err := w.Add(row, int64(i*512+k+1)); err != nil {
				b.Fatal(err)
			}
		}
		file, err := w.Finish()
		if err != nil {
			b.Fatal(err)
		}
		mn, mx := w.ClusterBounds()
		infos = append(infos, meta.FragmentInfo{
			ID: meta.FragmentID(fmt.Sprintf("ros/bench-%03d", i)), Table: table, Format: meta.ROS,
			Path: fmt.Sprintf("ros/%s/bench-%03d", table, i), Clusters: [2]string{"alpha", "beta"},
			RowCount: w.RowCount(), CommittedBytes: int64(len(file)), Finalized: true, SchemaVersion: sc.Version,
			PartitionSet: w.Partitions(), Bloom: w.Bloom(),
			ClusterMin: rowenc.EncodeValues(mn), ClusterMax: rowenc.EncodeValues(mx),
		})
	}
	if own > 0 {
		if _, err := r.Net.Unary(ctx, addr, wire.MethodRegisterConversion, &wire.RegisterConversionRequest{Table: table, New: infos}); err != nil {
			b.Fatal(err)
		}
	}

	s, err := c.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		b.Fatal(err)
	}
	view := func() *wire.ReadViewResponse {
		resp, err := r.Net.Unary(ctx, addr, wire.MethodReadView, &wire.ReadViewRequest{Table: table})
		if err != nil {
			b.Fatal(err)
		}
		return resp.(*wire.ReadViewResponse)
	}
	for {
		if _, err := s.Append(ctx, gen.SalesRows(0, 64), client.AtOffset(-1)); err != nil {
			b.Fatal(err)
		}
		r.HeartbeatAll(ctx, false)
		if v := view(); len(v.Streamlets) == 1 && v.Streamlets[0].Info.NextFragmentIndex >= 8 {
			break
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v := view(); len(v.Fragments) != len(infos) || len(v.Streamlets) != 1 {
			b.Fatalf("view has %d fragments and %d streamlets, want %d and 1", len(v.Fragments), len(v.Streamlets), len(infos))
		}
	}
}

// BenchmarkHeartbeatDelta times one delta heartbeat round — the Stream
// Servers' HeartbeatAll with one dirty streamlet — in a table that also
// holds 0, 100 or 1 000 registered ROS fragment records. The round's GC
// reads only the fragments it reports, so neither its time nor its
// allocations should grow with the records. The append that dirties the
// streamlet runs outside the timer.
func BenchmarkHeartbeatDelta(b *testing.B) {
	for _, records := range []int{0, 100, 1000} {
		b.Run(fmt.Sprintf("ros=%d", records), func(b *testing.B) {
			const table = meta.TableID("d.sales")
			ctx := context.Background()
			r := core.NewRegion(core.DefaultConfig())
			c := r.NewClient(client.DefaultOptions())
			sc := workload.SalesSchema()
			if err := c.CreateTable(ctx, table, sc); err != nil {
				b.Fatal(err)
			}
			addr, err := r.Router().SMSFor(table)
			if err != nil {
				b.Fatal(err)
			}
			infos := make([]meta.FragmentInfo, records)
			for i := range infos {
				infos[i] = meta.FragmentInfo{
					ID: meta.FragmentID(fmt.Sprintf("ros/bench-%04d", i)), Table: table, Format: meta.ROS,
					Path: fmt.Sprintf("ros/%s/bench-%04d", table, i), Clusters: [2]string{"alpha", "beta"},
					RowCount: 512, Finalized: true, SchemaVersion: sc.Version,
				}
			}
			if _, err := r.Net.Unary(ctx, addr, wire.MethodRegisterConversion, &wire.RegisterConversionRequest{Table: table, New: infos}); err != nil {
				b.Fatal(err)
			}
			s, err := c.CreateStream(ctx, table, meta.Unbuffered)
			if err != nil {
				b.Fatal(err)
			}
			rows := workload.NewGen(11, 300).SalesRows(0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if _, err := s.Append(ctx, rows, client.AtOffset(-1)); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				r.HeartbeatAll(ctx, false)
			}
		})
	}
}
