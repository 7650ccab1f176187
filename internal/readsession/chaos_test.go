package readsession_test

import (
	"context"
	"io"
	"testing"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/rowenc"
	"vortex/internal/truetime"
	"vortex/internal/verify"
)

func newChaosRSEnv(t testing.TB, table meta.TableID, sched *chaos.Schedule) *rsEnv {
	t.Helper()
	clock := truetime.NewManual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Clock = clock
	cfg.MaxFragmentBytes = 512
	cfg.Chaos = sched
	r := core.NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	e := &rsEnv{r: r, c: c, clock: clock, ctx: context.Background(), table: table}
	if err := c.CreateTable(e.ctx, e.table, rsSchema()); err != nil {
		t.Fatal(err)
	}
	return e
}

// drainResilient drains a shard, retrying Next on stream errors: the
// resume path must make faults invisible to the row set.
func drainResilient(t testing.TB, e *rsEnv, sh *readsession.Shard, maxFaults int) ([]rowenc.Stamped, int) {
	t.Helper()
	var out []rowenc.Stamped
	faults := 0
	for {
		b, err := sh.Next(e.ctx)
		if err == io.EOF {
			return out, faults
		}
		if err != nil {
			faults++
			if faults > maxFaults {
				t.Fatalf("shard %s: fault %d: %v", sh.ID(), faults, err)
			}
			continue
		}
		sh.Commit()
		out = append(out, b.Rows()...)
	}
}

// TestRPCDropMidBatch injects a failure into the server's stream-response
// path mid-scan: the stream dies with a batch in flight, and the reader
// resumes from its checkpoint with no row lost or duplicated.
func TestRPCDropMidBatch(t *testing.T) {
	sched := chaos.NewSchedule().
		FailAt(chaos.PointStreamResp, readsession.DefaultAddr, 3)
	e := newChaosRSEnv(t, "d.rpcdrop", sched)
	e.seal(t, 0, 120)
	e.live(t, 1, 30)
	e.r.ReadSessions.SetBatchRows(32)

	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 1, Window: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(e.ctx)
	rows, faults := drainResilient(t, e, sess.Shards()[0], 2)
	if faults == 0 {
		t.Fatal("injected stream-response failure never surfaced")
	}
	checkNoDuplicates(t, rows)
	wantDigest, wantRows, err := verify.SnapshotDigest(e.ctx, e.c, e.table, sess.SnapshotTS())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != wantRows || verify.DigestStamped(rows) != wantDigest {
		t.Fatalf("post-fault drain delivered %d rows (want %d), digest mismatch", len(rows), wantRows)
	}
	if e.c.Metrics().CheckpointResumes == 0 {
		t.Fatal("recovery must be counted as a checkpoint resume")
	}
}

// TestSMSFailoverDuringSplit crashes the SMS mid-session, splits and
// drains under the outage, restarts the SMS and closes. Session state
// lives in the read-session task and the lease in Spanner, so neither
// the split nor the reads depend on SMS liveness; the deferred close
// (lease release) succeeds after the restart.
func TestSMSFailoverDuringSplit(t *testing.T) {
	e := newRSEnv(t, "d.smsfail")
	e.seal(t, 0, 120)
	e.seal(t, 1, 120)
	e.r.ReadSessions.SetBatchRows(32)

	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 2, Window: 2048})
	if err != nil {
		t.Fatal(err)
	}
	shards := sess.Shards()

	for _, addr := range e.r.SMSAddrs() {
		e.r.CrashSMSTask(addr)
	}

	var all []rowenc.Stamped
	b, err := shards[0].Next(e.ctx)
	if err != nil {
		t.Fatalf("read during SMS outage: %v", err)
	}
	shards[0].Commit()
	all = append(all, b.Rows()...)
	newShard, err := sess.Split(e.ctx, shards[0])
	if err != nil {
		t.Fatalf("split during SMS outage: %v", err)
	}
	all = append(all, drainCommitted(t, e.ctx, shards[0])...)
	if newShard != nil {
		all = append(all, drainCommitted(t, e.ctx, newShard)...)
	}
	all = append(all, drainCommitted(t, e.ctx, shards[1])...)

	for _, addr := range e.r.SMSAddrs() {
		e.r.RestartSMSTask(addr)
	}
	if err := sess.Close(e.ctx); err != nil {
		t.Fatalf("close after SMS restart: %v", err)
	}

	checkNoDuplicates(t, all)
	wantDigest, wantRows, err := verify.SnapshotDigest(e.ctx, e.c, e.table, sess.SnapshotTS())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != wantRows || verify.DigestStamped(all) != wantDigest {
		t.Fatalf("drain under SMS outage delivered %d rows, want %d", len(all), wantRows)
	}
}

// TestServerRestartFailsOpenStreams: read-session state is in-memory by
// design; a service restart invalidates open sessions (their leases
// expire on their own) and readers get a hard error, not silent
// corruption.
func TestServerRestartFailsOpenStreams(t *testing.T) {
	e := newRSEnv(t, "d.restart")
	e.seal(t, 0, 60)
	sess, err := readsession.Dial(e.c, "").Open(e.ctx, e.table, readsession.Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Simulated crash: handlers leave the network, then return with
	// session state gone.
	e.r.ReadSessions.Crash()
	e.r.ReadSessions.Register()
	sh := sess.Shards()[0]
	if _, err := sh.Next(e.ctx); err == nil {
		t.Fatal("read from a restarted service must fail")
	}
}
