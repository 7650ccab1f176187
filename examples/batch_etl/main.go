// Batch ETL: the unified batch/streaming story of §7.5 — parallel
// workers each write a PENDING stream and a coordinator commits them
// atomically (§4.2.4), then a Dataflow-style pipeline writes through the
// exactly-once BUFFERED-stream sink (§7.4) with zombie workers injected,
// and finally the result is read back through a parallel read session
// (the Storage-Read-API shape) with a reader crash injected mid-scan.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"vortex"
	"vortex/internal/dataflow"
	"vortex/internal/meta"
	"vortex/internal/workload"
)

func main() {
	ctx := context.Background()
	db := vortex.Open(vortex.WithClusters("alpha", "beta"), vortex.WithSeed(1))
	const table = "etl.sales"
	sc := workload.SalesSchema()
	if err := db.CreateTable(ctx, table, sc); err != nil {
		log.Fatal(err)
	}

	// ---- Part 1: atomic batch load via PENDING streams (§4.2.4) ----
	const workers = 4
	const rowsPerWorker = 250
	ids := make([]meta.StreamID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			gen := workload.NewGen(int64(w), 300)
			// The writer pins each batch at its next offset, so a lost ack
			// settles as Landed instead of aborting the load (§4.2.2).
			wr := db.Table(table).NewWriter()
			if err := wr.Open(ctx, vortex.Pending); err != nil {
				log.Fatal(err)
			}
			ids[w] = wr.Stream().Info().ID
			rows := gen.SalesRows(0, rowsPerWorker)
			for lo := 0; lo < len(rows); lo += 50 {
				if _, err := wr.Write(ctx, rows[lo:lo+50]); err != nil {
					log.Fatal(err)
				}
			}
			if _, err := wr.Rotate(ctx); err != nil {
				log.Fatal(err)
			}
		}(w)
	}
	wg.Wait()

	res, err := db.Query(ctx, "SELECT COUNT(*) FROM etl.sales")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before BatchCommit: COUNT(*) = %s (PENDING rows are invisible)\n", res.Rows()[0][0])

	commitTS, err := db.BatchCommit(ctx, table, ids)
	if err != nil {
		log.Fatal(err)
	}
	res, err = db.Query(ctx, "SELECT COUNT(*) FROM etl.sales")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after  BatchCommit: COUNT(*) = %s (all %d workers' rows atomically visible)\n",
		res.Rows()[0][0], workers)

	// Time travel to just before the commit still sees nothing.
	old, err := db.QueryAt(ctx, "SELECT COUNT(*) FROM etl.sales", commitTS-1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot(commit-1ns): COUNT(*) = %s (atomicity in time)\n\n", old.Rows()[0][0])

	// ---- Part 2: exactly-once streaming sink (§7.4) ----
	gen := workload.NewGen(99, 300)
	streamRows := gen.SalesRows(1, 500)
	start := time.Now()
	sink, err := dataflow.WriteTableRows(ctx, db.Client(), table, streamRows, dataflow.SinkOptions{
		Partitions:          4,
		BundleSize:          25,
		DuplicateDeliveries: 2, // zombie workers on every bundle
		CrashAfterAppend:    3, // and crashes between append and commit
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataflow sink: %d bundles, %d zombie deliveries defeated, %d rows in %s\n",
		sink.BundlesProcessed, sink.ZombiesDefeated, sink.RowsWritten, time.Since(start).Round(time.Millisecond))

	res, err = db.Query(ctx, "SELECT COUNT(*) FROM etl.sales")
	if err != nil {
		log.Fatal(err)
	}
	want := int64(workers*rowsPerWorker + len(streamRows))
	got := res.Rows()[0][0].AsInt64()
	fmt.Printf("final COUNT(*) = %d (expected %d) — exactly-once end to end: %v\n\n", got, want, got == want)
	if got != want {
		log.Fatal("exactly-once violated")
	}

	// ---- Part 3: read it all back through a parallel read session ----
	// The session pins a snapshot, fans the table out into shard streams,
	// and checkpoints offsets — so a reader crash mid-scan replays exactly
	// the uncommitted suffix, and the union of all shards is the table.
	sess, err := db.OpenReadSession(ctx, table, vortex.ReadSessionOptions{Shards: 4})
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close(ctx)
	var (
		mu      sync.Mutex
		total   int64
		crashed bool
	)
	var rwg sync.WaitGroup
	for i, sh := range sess.Shards() {
		rwg.Add(1)
		go func(i int, sh *vortex.ReadShard) {
			defer rwg.Done()
			batches := 0
			for {
				b, err := sh.Next(ctx)
				if err == io.EOF {
					return
				}
				if err != nil {
					log.Fatal(err)
				}
				batches++
				if i == 0 && batches == 2 {
					mu.Lock()
					crashed = true
					mu.Unlock()
					// Simulated reader death before Commit: the batch is
					// forgotten and re-delivered to the successor below.
					sh.Crash()
					continue
				}
				mu.Lock()
				total += int64(b.NumRows())
				mu.Unlock()
				sh.Commit()
			}
		}(i, sh)
	}
	rwg.Wait()
	st := sess.Stats()
	fmt.Printf("read session: %d shards, %d batches, crash injected=%v, resumes=%d\n",
		st.Shards, st.Batches, crashed, st.Resumes)
	fmt.Printf("session delivered %d rows (expected %d) — shard union complete: %v\n",
		total, want, total == want)
	if total != want {
		log.Fatal("read-session union incomplete")
	}
}
