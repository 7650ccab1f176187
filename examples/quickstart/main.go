// Quickstart: create a table, stream rows into it with read-after-write
// consistency, and query it with SQL — the end-to-end loop the paper's
// abstract promises ("petabyte scale data ingestion with sub-second data
// freshness and query latency"), scaled to one process.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vortex"
)

func main() {
	ctx := context.Background()
	db := vortex.Open(vortex.WithClusters("alpha", "beta"), vortex.WithSeed(1))

	// A partitioned, clustered table (cf. the paper's Listing 1).
	eventsSchema := &vortex.Schema{
		Fields: []*vortex.Field{
			{Name: "ts", Kind: vortex.TimestampKind, Mode: vortex.Required},
			{Name: "device", Kind: vortex.StringKind, Mode: vortex.Required},
			{Name: "reading", Kind: vortex.Float64Kind, Mode: vortex.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"device"},
	}
	if err := db.CreateTable(ctx, "iot.events", eventsSchema); err != nil {
		log.Fatal(err)
	}

	// Stream rows through a writer on an UNBUFFERED stream: once Write
	// returns, the rows are durably committed and visible to queries
	// (§4.2.1). The writer pins each batch at its next offset, so a retry
	// is exactly-once and a lost ack settles as Landed (§4.2.2).
	w := db.Table("iot.events").NewWriter()
	if err := w.Open(ctx, vortex.Unbuffered); err != nil {
		log.Fatal(err)
	}
	base := time.Now().UTC()
	for i := 0; i < 100; i++ {
		row := vortex.NewRow(
			vortex.TimestampValue(base.Add(time.Duration(i)*time.Second)),
			vortex.StringValue(fmt.Sprintf("sensor-%d", i%7)),
			vortex.Float64Value(20+float64(i%10)/2),
		)
		if _, err := w.Write(ctx, []vortex.Row{row}); err != nil {
			log.Fatal(err)
		}
	}

	// Sub-second freshness: the rows are immediately queryable.
	start := time.Now()
	res, err := db.Query(ctx, `
		SELECT device, COUNT(*) AS n, AVG(reading) AS avg_reading
		FROM iot.events
		GROUP BY device
		ORDER BY device`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query returned %d groups in %s (freshness: read-after-write)\n\n", len(res.Rows()), time.Since(start).Round(time.Microsecond))
	fmt.Printf("%-12s %4s %12s\n", "device", "n", "avg_reading")
	for _, r := range res.Rows() {
		fmt.Printf("%-12s %4d %12.2f\n", r[0].AsString(), r[1].AsInt64(), r[2].AsFloat64())
	}

	// Run storage optimization (WOS→ROS, §6.1) and query again: same
	// answer, now from columnar storage.
	db.Heartbeat(ctx)
	if _, err := w.Rotate(ctx); err != nil {
		log.Fatal(err)
	}
	db.Heartbeat(ctx)
	opt, err := db.Optimize(ctx, "iot.events")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimizer: converted %d WOS fragments into %d ROS files (%d rows)\n",
		opt.FragmentsConverted, opt.FilesWritten, opt.RowsConverted)

	res2, err := db.Query(ctx, "SELECT COUNT(*) FROM iot.events")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-conversion COUNT(*) = %s (exactly-once across the handoff)\n", res2.Rows()[0][0])
}
