// Clickstream: the paper's motivating log-analytics scenario (§1) —
// many resource-constrained producers push events straight to the
// warehouse (no local buffering, no batch loads, no extra copies), while
// continuous SQL queries watch the stream with sub-second freshness and
// the storage optimizer keeps layout query-friendly in the background.
// A live materialized view (DESIGN.md §14) rolls the stream up to
// per-page view counts as it arrives.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"vortex"
	"vortex/internal/workload"
)

// clicksSchema is the workload's event schema with a primary key in
// front: keyed rows are what lets the materialized view retract and
// re-aggregate on UPSERT/DELETE change capture.
func clicksSchema() *vortex.Schema {
	base := workload.EventsSchema()
	return &vortex.Schema{
		Fields: append([]*vortex.Field{
			{Name: "clickId", Kind: vortex.StringKind, Mode: vortex.Required},
		}, base.Fields...),
		PrimaryKey:     []string{"clickId"},
		PartitionField: base.PartitionField,
		ClusterBy:      base.ClusterBy,
	}
}

func main() {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	db := vortex.Open(vortex.WithClusters("alpha", "beta"), vortex.WithSeed(1))
	const table = "web.clicks"
	if err := db.CreateTable(ctx, table, clicksSchema()); err != nil {
		log.Fatal(err)
	}
	// Background heartbeats + optimization, as in production (§5.5, §6.1).
	db.RunBackground(ctx, 100*time.Millisecond, table)

	// A continuously maintained per-page count view over the click
	// stream: the view is itself a primary-keyed Vortex table.
	view, err := db.CreateMaterializedView(ctx, `CREATE MATERIALIZED VIEW web.pageviews AS
SELECT url AS page, COUNT(*) AS views FROM web.clicks GROUP BY url`)
	if err != nil {
		log.Fatal(err)
	}

	// 8 producers, each with its own dedicated stream (§4.1: "tens of
	// thousands of clients ... each of them typically using their own
	// dedicated Stream").
	const producers = 8
	const eventsPerProducer = 400
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			gen := workload.NewGen(int64(p), 200)
			// An exactly-once writer: each batch pinned at its next
			// offset, a lost ack settled as Landed (§4.2.2).
			w := db.Table(table).NewWriter()
			if err := w.Open(ctx, vortex.Unbuffered); err != nil {
				log.Fatal(err)
			}
			for i := 0; i < eventsPerProducer; i += 20 {
				raw := gen.EventRows(time.Now(), 20, time.Millisecond)
				rows := make([]vortex.Row, len(raw))
				for j, r := range raw {
					vals := append([]vortex.Value{
						vortex.StringValue(fmt.Sprintf("p%d-%04d", p, i+j)),
					}, r.Values...)
					row := vortex.NewRow(vals...)
					row.Change = vortex.Upsert
					rows[j] = row
				}
				if _, err := w.Write(ctx, rows); err != nil {
					log.Fatal(err)
				}
			}
		}(p)
	}

	// A continuous dashboard query running WHILE ingestion is happening,
	// plus the incrementally refreshed view: each tick folds only the
	// delta since the last refresh into web.pageviews.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	ticker := time.NewTicker(150 * time.Millisecond)
	defer ticker.Stop()
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-ticker.C:
		}
		res, err := db.Query(ctx, `
			SELECT eventType, COUNT(*) AS n
			FROM web.clicks
			GROUP BY eventType
			ORDER BY eventType`)
		if err != nil {
			log.Fatal(err)
		}
		var total int64
		line := ""
		for _, r := range res.Rows() {
			line += fmt.Sprintf("  %s=%d", r[0].AsString(), r[1].AsInt64())
			total += r[1].AsInt64()
		}
		st, err := view.Refresh(ctx)
		if err != nil {
			log.Fatal(err)
		}
		top, err := db.Query(ctx, "SELECT page, views FROM web.pageviews ORDER BY views DESC LIMIT 1")
		if err != nil {
			log.Fatal(err)
		}
		hot := ""
		if rows := top.Rows(); len(rows) > 0 {
			hot = fmt.Sprintf("  hot page %s=%d", rows[0][0].AsString(), rows[0][1].AsInt64())
		}
		fmt.Printf("[live] total=%-6d%s  (view: +%d events)%s\n", total, line, st.Events, hot)
	}

	// Final checks: exact totals, the view against its defining query
	// recomputed at the applied snapshot, and a clustered point lookup.
	res, err := db.Query(ctx, "SELECT COUNT(*) FROM web.clicks")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal count: %s (expected %d)\n", res.Rows()[0][0], producers*eventsPerProducer)

	if _, err := view.Refresh(ctx); err != nil {
		log.Fatal(err)
	}
	want, err := db.QueryAt(ctx, view.Definition().SelectSQL, view.AppliedTS())
	if err != nil {
		log.Fatal(err)
	}
	got, err := db.Query(ctx, "SELECT page, views FROM web.pageviews ORDER BY views DESC")
	if err != nil {
		log.Fatal(err)
	}
	var viewTotal int64
	for _, r := range got.Rows() {
		viewTotal += r[1].AsInt64()
	}
	if len(got.Rows()) != len(want.Rows()) {
		log.Fatalf("view has %d pages, recompute has %d", len(got.Rows()), len(want.Rows()))
	}
	fmt.Printf("pageviews view: %d pages, %d views — matches recompute at snapshot %d\n",
		len(got.Rows()), viewTotal, view.AppliedTS())
	fmt.Println("top pages:")
	for i, r := range got.Rows() {
		if i == 3 {
			break
		}
		fmt.Printf("  %-24s %d views\n", r[0].AsString(), r[1].AsInt64())
	}

	res, err = db.Query(ctx, `
		SELECT deviceId, COUNT(*) AS n
		FROM web.clicks
		WHERE eventType = 'purchase'
		GROUP BY deviceId ORDER BY n DESC LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("top purchasing devices:")
	for _, r := range res.Rows() {
		fmt.Printf("  %-14s %d purchases\n", r[0].AsString(), r[1].AsInt64())
	}
	st, err := db.ClusteringRatio(ctx, table)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clustering: ratio=%.2f baseline=%d delta=%d fragments\n", st.Ratio, st.BaselineFragments, st.DeltaFragments)
}
