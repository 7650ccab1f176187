package clusterd

import (
	"context"
	"errors"
	"os"
	"sync"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/verify"
	"vortex/internal/workload"
)

// TestMain lets this test binary serve as a cluster node: LaunchLocal
// spawns nodes by re-executing the current binary, and a child carrying
// the node-config environment variable diverts into RunNode instead of
// running tests.
func TestMain(m *testing.M) {
	MaybeRunNode()
	os.Exit(m.Run())
}

// TestLaunchLocalExactlyOnce is the only test in which every RPC crosses
// an OS process boundary: a coordinator and one worker run as child
// processes, this process is the client. Every acknowledged append must
// verify exactly-once against the ledger, and the read session must
// serve what the scan path reads.
func TestLaunchLocalExactlyOnce(t *testing.T) {
	const (
		streams          = 4
		batchesPerStream = 25
	)
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Fragments rotate small so the run finalizes fragments through the
	// coordinator's Colossus proxy, not just appends to one.
	lc, err := LaunchLocal(ctx, exe, ClusterSpec{
		Workers:          1,
		MaxFragmentBytes: 16 << 10,
		HeartbeatEveryMS: 100,
	})
	if err != nil {
		t.Fatalf("launching cluster: %v", err)
	}
	defer lc.Shutdown()

	pids := map[int]bool{os.Getpid(): true}
	for _, n := range lc.Nodes {
		pids[n.cmd.Process.Pid] = true
	}
	if len(lc.Nodes) != 2 || len(pids) != 3 {
		t.Fatalf("want coordinator + 1 worker as 2 child processes, got %d nodes, pids %v", len(lc.Nodes), pids)
	}

	tr := lc.NewTransport()
	defer tr.Close()
	c, clock := joinCluster(t, tr, lc.KeyHex, lc.Spec.SMSTasks, client.DefaultOptions())

	table := meta.TableID("t.procs")
	if err := c.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		t.Fatalf("create table: %v", err)
	}

	ledger := verify.NewLedger()
	var wg sync.WaitGroup
	for i := 0; i < streams; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := workload.NewGen(int64(100+i), 200)
			stream, err := c.CreateStream(ctx, table, meta.Unbuffered)
			if err != nil {
				t.Errorf("stream %d: create: %v", i, err)
				return
			}
			tracked := verify.Track(stream, ledger)
			var next int64
			for b := 0; b < batchesPerStream; b++ {
				rows := gen.EventRows(time.Now(), 2+b%3, time.Millisecond)
				// Retry the same batch at the same offset until it is in:
				// a dropped connection loses the ack, not the rows, and
				// the offset pin turns the retry into WRONG_OFFSET — an
				// ack without timestamps, which the verifier resolves by
				// content.
				committed := false
				for attempt := 0; attempt < 50 && !committed; attempt++ {
					_, err := tracked.Append(ctx, rows, client.AtOffset(next))
					switch {
					case err == nil:
						committed = true
					case errors.Is(err, client.ErrWrongOffset):
						rec := verify.AppendRecord{Table: table, Stream: stream.Info().ID, Offset: next, RowCount: int64(len(rows)), FirstSeq: -1}
						for _, r := range rows {
							rec.RowHashes = append(rec.RowHashes, verify.RowHash(r))
						}
						ledger.Record(rec)
						committed = true
					default:
						time.Sleep(5 * time.Millisecond)
					}
				}
				if !committed {
					t.Errorf("stream %d: batch %d never committed", i, b)
					return
				}
				next += int64(len(rows))
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// All processes share this host's clock, so latest-now covers every
	// commit.
	snapshot := clock.Now().Latest
	report, err := verify.VerifyTable(ctx, c, table, ledger, snapshot)
	if err != nil {
		t.Fatalf("scan read-back: %v", err)
	}
	if !report.OK() || report.AppendsChecked != streams*batchesPerStream {
		t.Fatalf("not exactly-once across processes: %s", report)
	}
	scanDigest, scanRows, err := verify.SnapshotDigest(ctx, c, table, snapshot)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := readsession.Dial(c, "").Open(ctx, table, readsession.Options{Shards: 2, SnapshotTS: snapshot})
	if err != nil {
		t.Fatalf("read session open: %v", err)
	}
	served, err := sess.ReadAll(ctx)
	if err != nil {
		t.Fatalf("read session drain: %v", err)
	}
	_ = sess.Close(ctx)
	if len(served) != scanRows || verify.DigestStamped(served) != scanDigest {
		t.Fatalf("read session served %d rows, scan read %d, or their digests differ", len(served), scanRows)
	}
}
