// Command vortex-verify runs the §6.3 data-verification pipelines
// against a live ingestion workload: it streams exactly-once appends
// from concurrent writers, each recorded in the ledger, (optionally with duplicate-retry storms and a
// Stream Server crash), runs storage optimization and reclustering, and
// then verifies that every acknowledged row exists exactly once with
// byte-identical content.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"vortex"
	"vortex/internal/meta"
	"vortex/internal/workload"
)

func main() {
	var (
		writers  = flag.Int("writers", 8, "concurrent exactly-once writers")
		appends  = flag.Int("appends", 100, "appends per writer")
		batch    = flag.Int("batch", 20, "rows per append")
		chaos    = flag.Bool("chaos", true, "inject duplicate retries and a stream server crash")
		optimize = flag.Bool("optimize", true, "run WOS→ROS conversion and reclustering before verifying")
	)
	flag.Parse()
	ctx := context.Background()
	db := vortex.Open()
	const table = meta.TableID("verify.t")
	if err := db.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		fatal(err)
	}
	ledger := db.AppendLedger()

	fmt.Printf("ingesting: %d writers x %d appends x %d rows (chaos=%v)\n", *writers, *appends, *batch, *chaos)
	var wg sync.WaitGroup
	errCh := make(chan error, *writers)
	for wi := 0; wi < *writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			gen := workload.NewGen(int64(wi), 300)
			w := db.Table(table).NewWriter()
			if err := w.Open(ctx, vortex.Unbuffered); err != nil {
				errCh <- err
				return
			}
			w.Applied = ledger.Applied(w)
			for i := 0; i < *appends; i++ {
				rows := gen.EventRows(time.Now(), *batch, time.Microsecond)
				off := w.Next()
				if _, err := w.Write(ctx, rows); err != nil {
					errCh <- fmt.Errorf("writer %d: %w", wi, err)
					return
				}
				if *chaos && i%7 == 3 {
					// Duplicate retry at the same offset: a second writer
					// pinned there must be told the batch already landed,
					// and records nothing (exactly-once, §4.2.2).
					dup := db.Table(table).NewWriter()
					dup.Attach(w.Stream(), off)
					if o, err := dup.Append(ctx, rows); o != vortex.Landed {
						errCh <- fmt.Errorf("writer %d: duplicate append not refused (outcome %d, err %v)", wi, o, err)
						return
					}
				}
			}
		}(wi)
	}
	if *chaos {
		// Crash a stream server mid-run: writers rotate streamlets.
		go func() {
			time.Sleep(50 * time.Millisecond)
			for addr := range db.Region.StreamServers {
				db.Region.CrashStreamServer(addr)
				fmt.Printf("chaos: crashed %s\n", addr)
				return
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		fatal(err)
	default:
	}

	db.Heartbeat(ctx)
	if *optimize {
		res, err := db.Optimize(ctx, table)
		if err != nil {
			fatal(err)
		}
		merged, err := db.Recluster(ctx, table, true)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("optimizer: %d fragments -> %d ROS files (%d rows); %d partitions reclustered\n",
			res.FragmentsConverted, res.FilesWritten, res.RowsConverted, merged)
	}

	rep, err := db.Verify(ctx, table)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("verification: %s\n", rep)
	if !rep.OK() {
		fmt.Fprintln(os.Stderr, "VERIFICATION FAILED")
		os.Exit(1)
	}
	fmt.Println("VERIFICATION PASSED: every acked row exists exactly once with identical content")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vortex-verify:", err)
	os.Exit(1)
}
