package clusterd

// In-process integration: a coordinator and a worker on separate
// TCPTransports (real sockets, same test process), driven by a client
// on a third transport. This proves the wiring — colossus proxy, SMS
// routing, stream-server instructs, read paths — without the process
// orchestration, which TestLaunchLocalExactlyOnce covers.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/colossusrpc"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/truetime"
	"vortex/internal/workload"
)

func testKeyHex(t *testing.T) string {
	t.Helper()
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	return hex.EncodeToString(key)
}

// joinCluster builds the client a separate process would: the cluster's
// shared key, its own clock, and Colossus through the coordinator's
// proxy.
func joinCluster(t *testing.T, tr rpc.Transport, keyHex string, smsTasks int, opts client.Options) (*client.Client, truetime.Clock) {
	t.Helper()
	key, err := hex.DecodeString(keyHex)
	if err != nil {
		t.Fatal(err)
	}
	keyring := blockenc.NewKeyring()
	if err := keyring.SetKey(blockenc.SystemKey, key); err != nil {
		t.Fatal(err)
	}
	clock := truetime.NewSystem(4*time.Millisecond, 0)
	store := colossusrpc.NewRemote(tr, colossusrpc.DefaultAddr)
	return client.New(tr, Router(smsTasks), store, keyring, clock, opts), clock
}

// tcpCluster is an in-process coordinator+worker pair over real
// sockets, plus a client on its own transport.
type tcpCluster struct {
	coordTr  *rpc.TCPTransport
	workerTr *rpc.TCPTransport
	clientTr *rpc.TCPTransport
	client   *client.Client
	clock    truetime.Clock
	coord    *Coordinator
	worker   *Worker
}

func startTCPCluster(t *testing.T, opts client.Options) *tcpCluster {
	t.Helper()
	keyHex := testKeyHex(t)
	servers := []ServerSpec{
		{Addr: "ss-alpha-w0-0", Cluster: "alpha"},
		{Addr: "ss-beta-w0-1", Cluster: "beta"},
	}
	shared := NodeConfig{
		Clusters:         []string{"alpha", "beta"},
		SMSTasks:         2,
		Key:              keyHex,
		MaxFragmentBytes: 64 << 10,
		HeartbeatEveryMS: 50,
	}
	coordTr := rpc.NewTCPTransport()
	coordAddr, err := coordTr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	workerTr := rpc.NewTCPTransport()
	workerAddr, err := workerTr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	routes := map[string]string{
		"colossus": coordAddr, "readsession-0": coordAddr,
		"sms-0": coordAddr, "sms-1": coordAddr,
		"ss-alpha-w0-0": workerAddr, "ss-beta-w0-1": workerAddr,
	}
	coordTr.AddRoutes(routes)
	workerTr.AddRoutes(routes)

	coordCfg := shared
	coordCfg.Role = "coordinator"
	coordCfg.AllServers = servers
	co, err := StartCoordinator(coordTr, coordCfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	workerCfg := shared
	workerCfg.Role = "worker"
	workerCfg.Servers = servers
	w, err := StartWorker(workerTr, workerCfg)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}

	clientTr := rpc.NewTCPTransport()
	clientTr.AddRoutes(routes)
	c, clock := joinCluster(t, clientTr, keyHex, 2, opts)
	t.Cleanup(func() {
		w.Stop()
		clientTr.Close()
		workerTr.Close()
		coordTr.Close()
	})
	return &tcpCluster{coordTr: coordTr, workerTr: workerTr, clientTr: clientTr, client: c, clock: clock, coord: co, worker: w}
}

func TestCoordinatorWorkerOverTCP(t *testing.T) {
	keyHex := testKeyHex(t)
	servers := []ServerSpec{
		{Addr: "ss-alpha-w0-0", Cluster: "alpha"},
		{Addr: "ss-beta-w0-1", Cluster: "beta"},
	}
	shared := NodeConfig{
		Clusters:         []string{"alpha", "beta"},
		SMSTasks:         2,
		Key:              keyHex,
		MaxFragmentBytes: 64 << 10,
		HeartbeatEveryMS: 50,
	}

	coordTr := rpc.NewTCPTransport()
	coordAddr, err := coordTr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coordTr.Close()
	workerTr := rpc.NewTCPTransport()
	workerAddr, err := workerTr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer workerTr.Close()

	routes := map[string]string{
		"colossus": coordAddr, "readsession-0": coordAddr,
		"sms-0": coordAddr, "sms-1": coordAddr,
		"ss-alpha-w0-0": workerAddr, "ss-beta-w0-1": workerAddr,
	}
	coordTr.AddRoutes(routes)
	workerTr.AddRoutes(routes)

	coordCfg := shared
	coordCfg.Role = "coordinator"
	coordCfg.AllServers = servers
	if _, err := StartCoordinator(coordTr, coordCfg); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	workerCfg := shared
	workerCfg.Role = "worker"
	workerCfg.Servers = servers
	w, err := StartWorker(workerTr, workerCfg)
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	defer w.Stop()

	// Client on its own transport, like a separate process.
	clientTr := rpc.NewTCPTransport()
	defer clientTr.Close()
	clientTr.AddRoutes(routes)
	c, clock := joinCluster(t, clientTr, keyHex, 2, client.DefaultOptions())

	ctx := context.Background()
	table := meta.TableID("t.cluster")
	if err := c.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		t.Fatalf("create table: %v", err)
	}
	stream, err := c.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatalf("create stream: %v", err)
	}
	gen := workload.NewGen(1, 100)
	var want int64
	for i := 0; i < 20; i++ {
		rows := gen.EventRows(time.Now(), 5, time.Millisecond)
		if _, err := stream.Append(ctx, rows, client.AtOffset(want)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want += int64(len(rows))
	}

	snapshot := clock.Now().Latest
	stamped, _, err := c.ReadAll(ctx, table, snapshot)
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	if int64(len(stamped)) != want {
		t.Fatalf("scan read %d rows, accepted %d", len(stamped), want)
	}

	sess, err := readsession.Dial(c, "").Open(ctx, table, readsession.Options{Shards: 2, SnapshotTS: snapshot})
	if err != nil {
		t.Fatalf("read session open: %v", err)
	}
	sessRows, err := sess.ReadAll(ctx)
	if err != nil {
		t.Fatalf("read session drain: %v", err)
	}
	if int64(len(sessRows)) != want {
		t.Fatalf("read session saw %d rows, accepted %d", len(sessRows), want)
	}
	_ = sess.Close(ctx)
}

// TestTCPResetSurfacesRetryableError proves the failure-mapping half of
// the contract in isolation: with the client's internal retries disabled
// (MaxAttempts=1), an append against severed connections must surface as
// a retryable client.Error — never as an opaque or terminal failure —
// and manually retrying that same pinned batch commits it exactly once.
func TestTCPResetSurfacesRetryableError(t *testing.T) {
	opts := client.DefaultOptions()
	opts.Retry = client.RetryPolicy{
		MaxAttempts:    1,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		Multiplier:     2,
		RetryBudget:    -1,
	}
	tc := startTCPCluster(t, opts)
	ctx := context.Background()
	table := meta.TableID("t.resetsurface")
	if err := tc.client.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		t.Fatalf("create table: %v", err)
	}
	stream, err := tc.client.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatalf("create stream: %v", err)
	}
	gen := workload.NewGen(11, 100)
	var accepted int64
	var surfaced int
	for i := 0; i < 10; i++ {
		// Warm the connections with a committed batch, then sever every
		// established connection so the next attempt hits a dead socket.
		rows := gen.EventRows(time.Now(), 3, time.Millisecond)
		if _, err := stream.Append(ctx, rows, client.AtOffset(accepted)); err != nil {
			t.Fatalf("warm append %d: %v", i, err)
		}
		accepted += int64(len(rows))
		tc.clientTr.AbortConnections()

		rows = gen.EventRows(time.Now(), 3, time.Millisecond)
		committed := false
		for attempt := 0; attempt < 20 && !committed; attempt++ {
			_, err := stream.Append(ctx, rows, client.AtOffset(accepted))
			switch {
			case err == nil, errors.Is(err, client.ErrWrongOffset):
				committed = true
			default:
				surfaced++
				var ce *client.Error
				if !errors.As(err, &ce) {
					t.Fatalf("reset surfaced as non-client.Error: %v", err)
				}
				if !ce.Retryable {
					t.Fatalf("reset surfaced as non-retryable %s: %v", ce.Code, err)
				}
			}
		}
		if !committed {
			t.Fatalf("batch %d never committed after reset", i)
		}
		accepted += int64(len(rows))
	}
	if surfaced == 0 {
		t.Fatal("no error ever surfaced: AbortConnections is not severing live connections")
	}
	t.Logf("surfaced %d retryable errors", surfaced)
	stamped, _, err := tc.client.ReadAll(ctx, table, tc.clock.Now().Latest)
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	if got := int64(len(stamped)); got != accepted {
		t.Fatalf("accepted %d rows, read %d (lost=%d phantom=%d)",
			accepted, got, max64(accepted-got, 0), max64(got-accepted, 0))
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestTCPResetMidAppendExactlyOnce severs the client's TCP connections
// repeatedly while offset-pinned appends are in flight. Every surfaced
// failure must be a retryable client.Error (a reset maps to ErrDropped,
// which the retry policy may retry in place), and the retried batches
// must commit exactly once: read-back equality, nothing lost, nothing
// duplicated.
func TestTCPResetMidAppendExactlyOnce(t *testing.T) {
	opts := client.DefaultOptions()
	opts.Retry = client.RetryPolicy{
		MaxAttempts:    6,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     40 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.2,
		HedgeDelay:     30 * time.Millisecond,
		RetryBudget:    -1,
	}
	tc := startTCPCluster(t, opts)
	ctx := context.Background()
	table := meta.TableID("t.reset")
	if err := tc.client.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
		t.Fatalf("create table: %v", err)
	}
	stream, err := tc.client.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatalf("create stream: %v", err)
	}

	// Background saboteur: sever every established client connection on
	// a tight cadence while appends flow. The storm is bounded (not
	// run-to-completion): under -race a control-plane round-trip can take
	// longer than the abort interval, and an unbounded storm would
	// livelock the client while abandoned server-side transactions pile
	// up. A fixed number of aborts keeps the reset coverage and
	// guarantees the tail of the workload runs to completion.
	stopAbort := make(chan struct{})
	abortDone := make(chan struct{})
	go func() {
		defer close(abortDone)
		for n := 0; n < 150; n++ {
			select {
			case <-stopAbort:
				return
			case <-time.After(2 * time.Millisecond):
				tc.clientTr.AbortConnections()
			}
		}
	}()

	gen := workload.NewGen(7, 100)
	var accepted int64
	var surfaced, nonRetryable int
	for i := 0; i < 60; i++ {
		rows := gen.EventRows(time.Now(), 4, time.Millisecond)
		committed := false
		for attempt := 0; attempt < 40 && !committed; attempt++ {
			_, err := stream.Append(ctx, rows, client.AtOffset(accepted))
			switch {
			case err == nil:
				committed = true
			case errors.Is(err, client.ErrWrongOffset):
				// A reset ate the ack after the server committed: the
				// retransmission memo already has the batch. Exactly-once
				// means the rows are in — resync, never re-append.
				committed = true
			default:
				surfaced++
				var ce *client.Error
				if !errors.As(err, &ce) || !ce.Retryable {
					nonRetryable++
					t.Logf("non-retryable surfaced error: %v", err)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
		if !committed {
			t.Fatalf("batch %d never committed", i)
		}
		accepted += int64(len(rows))
	}
	close(stopAbort)
	<-abortDone

	if nonRetryable != 0 {
		t.Fatalf("%d of %d surfaced errors were not retryable-typed", nonRetryable, surfaced)
	}
	t.Logf("surfaced %d retryable errors across %d accepted rows", surfaced, accepted)

	// Read back on a FRESH client transport (the saboteur may have left
	// the old one mid-reconnect) and hold the count against what was
	// acknowledged: lost == phantom == 0.
	stamped, _, err := tc.client.ReadAll(ctx, table, tc.clock.Now().Latest)
	if err != nil {
		t.Fatalf("read-back: %v", err)
	}
	got := int64(len(stamped))
	if got != accepted {
		if got < accepted {
			t.Fatalf("lost rows: accepted %d, read %d (lost=%d)", accepted, got, accepted-got)
		}
		t.Fatalf("phantom rows: accepted %d, read %d (phantom=%d)", accepted, got, got-accepted)
	}
}

func TestStaticRouterStable(t *testing.T) {
	r := Router(3)
	seen := map[string]bool{}
	for _, table := range []string{"a.t1", "a.t2", "b.t3", "c.t4", "d.t5", "e.t6"} {
		a1, err := r.SMSFor(meta.TableID(table))
		if err != nil {
			t.Fatal(err)
		}
		a2, _ := r.SMSFor(meta.TableID(table))
		if a1 != a2 {
			t.Fatalf("routing for %s not stable: %s vs %s", table, a1, a2)
		}
		seen[a1] = true
	}
	if len(seen) < 2 {
		t.Fatalf("6 tables all routed to one task: %v", seen)
	}
}
