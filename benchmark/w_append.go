package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/workload"
)

// appendSpec sizes one of the two append workloads. They run the same
// driver — open loop, closed loop, read everything back — over different
// transports, so that what differs between their numbers is the fabric.
type appendSpec struct {
	transport string // "mem" or "tcp"
	tables    int
	streams   int
	// openRate is the open-loop offer over both generators, in appends
	// per second, frozen at about a quarter of what the seed code
	// sustains closed-loop on the two-core sandbox.
	openRate float64
	// closedPerSecond is the closed-loop append count per generator per
	// second of window.
	closedPerSecond float64
}

// ingestSpec is the paper's headline path: four event tables, 64
// UNBUFFERED streams multiplexed round-robin by the two generators, all
// on the in-memory network — so client encode, the Stream Servers,
// Colossus replication and SMS heartbeats do the work and rpc does
// almost none. The seed code sustains ≈20–27k appends/s closed-loop, so
// its 2 × 25 000 appends last about a quarter of a ten-second window:
// long enough for over a hundred rate slices.
var ingestSpec = appendSpec{transport: "mem", tables: 4, streams: 64, openRate: 6400, closedPerSecond: 2500}

// clusterSpec is the same generator over real sockets: coordinator,
// worker and client each on their own TCPTransport, one table, one
// stream and so one connection per generator. Frame and gob codec, flow
// control and the colossusrpc hop dominate. The seed code sustains
// ≈2.4k appends/s closed-loop.
var clusterSpec = appendSpec{transport: "tcp", tables: 1, streams: generators, openRate: 700, closedPerSecond: 300}

const (
	appendRows = 16  // rows per append
	appendPool = 512 // distinct pre-built appends
	// openShare of the window is the open loop; the closed loop is a
	// fixed count, and the read-back takes what is left.
	openShare = 0.4
	// warmAppends per stream in set-up carry each stream past the
	// client's switch from unary calls to its own bi-directional stream.
	warmAppends     = 4
	benchReadAddr   = "readsession-bench"
	benchCacheBytes = 1 << 30
)

type appendDriver struct {
	spec    appendSpec
	seed    int64
	seconds float64
	pool    []batch
	pools   pools

	env      *env
	writer   *client.Client
	reader   *client.Client // the read-session service's scan client (mem only)
	sessions *readsession.Server
	readAddr string
	consumer *client.Client
	tables   []meta.TableID
	writers  [generators][]writer
	acked    []digest
	user     int64
	window   int64 // trace time at which the measured window began
	appends  int64
	passes   int
}

func newIngest(seed int64, seconds float64) driver { return newAppendDriver(ingestSpec, seed, seconds) }
func newClusterTCP(seed int64, seconds float64) driver {
	return newAppendDriver(clusterSpec, seed, seconds)
}

func newAppendDriver(spec appendSpec, seed int64, seconds float64) *appendDriver {
	pool := eventBatches(seed, appendPool, appendRows)
	return &appendDriver{spec: spec, seed: seed, seconds: seconds, pool: pool, pools: shared(pool)}
}

func (w *appendDriver) config() map[string]any {
	return map[string]any{
		"transport": w.spec.transport, "tables": w.spec.tables, "streams": w.spec.streams, "rows_per_append": appendRows,
		"distinct_appends": appendPool, "open_loop_appends_per_s": w.spec.openRate, "open_loop_share": openShare,
		"closed_loop_appends": w.closedCount() * generators, "generators": generators,
		"heartbeat_ms": heartbeatEvery.Milliseconds(), "fragment_bytes": fragmentBytes, "latency_profile": "zero",
	}
}

func (w *appendDriver) closedCount() int { return int(w.spec.closedPerSecond * w.seconds) }

func (w *appendDriver) setup(ctx context.Context, tr *tracer) (float64, error) {
	start := time.Now()
	if w.spec.transport == "tcp" {
		var err error
		if w.env, err = newTCPEnv(tr, w.seed); err != nil {
			return 0, err
		}
	} else {
		w.env = newMemEnv(tr)
	}
	w.writer = w.env.newClient(client.DefaultOptions())
	w.tables = w.tables[:0]
	for i := 0; i < w.spec.tables; i++ {
		table := meta.TableID(fmt.Sprintf("bench.events%d", i))
		if err := w.writer.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
			return 0, err
		}
		w.tables = append(w.tables, table)
	}
	var err error
	if w.writers, err = openWriters(ctx, w.writer, w.tables, w.spec.streams); err != nil {
		return 0, err
	}
	var cnt counts
	plan := appendPlan{writers: w.writers, tables: w.spec.tables, pool: w.pools, count: warmAppends * w.spec.streams / generators}
	warm := runAppends(ctx, tr, plan, &cnt)
	if cnt.failed > 0 {
		return 0, fmt.Errorf("%d warm-up appends failed: %s", cnt.failed, cnt.firstErr)
	}
	w.acked, w.user = warm.acked, warm.userBytes
	// In one process the benchmark brings its own read-session service so
	// that the cache under the scan is empty at the cold pass and its
	// counters are the workload's alone; over TCP the coordinator's
	// service, untouched until the read-back, is the one to measure.
	w.readAddr, w.reader, w.sessions = readsession.DefaultAddr, nil, nil
	if w.spec.transport == "mem" {
		opts := client.DefaultOptions()
		opts.ReadCacheBytes = benchCacheBytes
		w.readAddr = benchReadAddr
		w.reader, w.sessions = w.env.readServer(benchReadAddr, opts)
	}
	w.consumer = w.env.newClient(client.DefaultOptions())
	return time.Since(start).Seconds(), nil
}

func (w *appendDriver) run(ctx context.Context, m *measurement) error {
	e, tr := w.env, w.env.tr
	if tr != nil {
		w.window = tr.now()
	}
	began := time.Now()
	before := e.snap(w.writer, w.reader, w.sessions)

	endPhase := func() {}
	runtime.GC() // every phase starts from a collected heap
	if tr != nil {
		endPhase = tr.startPhase("open_loop")
	}
	plan := appendPlan{writers: w.writers, tables: w.spec.tables, pool: w.pools}
	plan.interval = time.Duration(float64(time.Second) * generators / w.spec.openRate)
	plan.count = int(openShare * w.seconds * w.spec.openRate / generators)
	open := runAppends(ctx, tr, plan, &m.counts)
	endPhase()
	runtime.GC()
	if tr != nil {
		endPhase = tr.startPhase("closed_loop")
	}
	plan.interval, plan.count = 0, w.closedCount()
	closed := runAppends(ctx, tr, plan, &m.counts)
	endPhase()
	mid := e.snap(w.writer, w.reader, w.sessions)

	for _, r := range []*appendRun{open, closed} {
		for t, d := range r.acked {
			w.acked[t].merge(d)
		}
		w.user += r.userBytes
	}
	w.appends = open.appends + closed.appends
	m.appendTimings(open.samples)
	m.set("append_rows_per_s", closed.rowsPerSecond())
	m.set(headlineOpMS, ratio(1e3*generators*appendRows, closed.rowsPerSecond()))
	m.set("gen.lateness_ms_p99", quantile(sortedCopy(open.lateMS), 0.99))
	appendLayers(m, before, mid, w.appends, open.userBytes+closed.userBytes)
	m.p50("sms.heartbeat_round_ms_p50", e.heartbeatRounds())

	runtime.GC()
	if tr != nil {
		endPhase = tr.startPhase("read_back")
	}
	budget := time.Duration(w.seconds*float64(time.Second)) - time.Since(began)
	warm, err := readBack(ctx, tr, m, w.consumer, []string{w.readAddr}, w.tables, readsession.Options{SnapshotTS: e.clock.Now().Latest}, budget)
	endPhase()
	if err != nil {
		return err
	}
	readLayers(m, mid, e.snap(w.writer, w.reader, w.sessions))
	drainLayers(m, warm)
	w.passes = 1 + len(warm)/len(w.tables)
	return nil
}

func (w *appendDriver) verify(ctx context.Context, m *measurement) error {
	e := w.env
	opts := readsession.Options{SnapshotTS: e.clock.Now().Latest}
	if err := verifyTables(ctx, m, readsession.Dial(w.consumer, w.readAddr), w.tables, workload.EventsSchema(), opts, w.acked); err != nil {
		return err
	}
	return storedRatio(ctx, e, m, w.user)
}

func (w *appendDriver) layers(m *measurement, all *spanIndex) {
	ix := all.since(w.window)
	traceLayers(m, all, ix, w.appends)
	if w.spec.transport == "mem" {
		// With a free hop, the call the client times is the handler.
		m.p50("streamserver.append_handler_ms_p50", ix.matching("client/streamserver:Append"))
	}
	readTraceLayers(m, ix, w.passes)
}

func (w *appendDriver) kernelInput() kernelInput {
	return kernelInput{schema: workload.EventsSchema(), batches: w.pool, filterColumn: "eventType", filterValue: "click"}
}

func (w *appendDriver) close() {
	if w.env != nil {
		w.env.close()
		w.env = nil
	}
}
