package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"time"

	"vortex/internal/bigmeta"
	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/clusterd"
	"vortex/internal/colossus"
	"vortex/internal/colossusrpc"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// generators is how many goroutines drive load: the issue's budget is
// one per core of the two-core sandbox, fixed so that a run on a larger
// machine offers the same load.
const generators = 2

// fragmentBytes is the fragment rotation size every workload runs with:
// small enough that a ten-second run rotates, finalizes and reports
// fragments many times per stream.
const fragmentBytes = 256 << 10

const heartbeatEvery = 100 * time.Millisecond

// env is one freshly built system under test and the seams the
// benchmark holds on it.
type env struct {
	tr *tracer

	net      rpc.Transport  // what the benchmark's clients and engines call through
	store    colossus.Store // what the benchmark's reading clients read through
	router   client.Router
	keyring  *blockenc.Keyring
	clock    truetime.Clock
	colossus *colossus.Region // the region itself: byte accounting, Stats
	index    *bigmeta.Index
	region   *core.Region // nil on tcp
	smsAddrs []string

	memNet *rpc.Network // nil on tcp
	worker *clusterd.Worker

	hbMu      sync.Mutex
	hbRoundMS []float64
	stop      []func()
}

// newMemEnv builds a single-process region on the in-memory network
// with the zero latency profile: nothing sleeps, so every millisecond
// measured is the program's own work.
func newMemEnv(tr *tracer) *env {
	cfg := core.DefaultConfig()
	cfg.MaxFragmentBytes = fragmentBytes
	r := core.NewRegion(cfg)
	e := &env{
		tr:       tr,
		net:      wrapNet(tr, "client", r.Net),
		store:    wrapStore(tr, r.Colossus),
		router:   r.Router(),
		keyring:  r.Keyring,
		clock:    r.Clock,
		colossus: r.Colossus,
		index:    r.BigMeta,
		region:   r,
		smsAddrs: r.SMSAddrs(),
		memNet:   r.Net,
	}
	// Heartbeats are the system's own background work; the benchmark
	// drives and times the rounds because the region leaves that to its
	// host.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(heartbeatEvery)
		defer ticker.Stop()
		for n := 1; ; n++ {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				e.heartbeat(ctx, n%10 == 0)
			}
		}
	}()
	e.stop = append(e.stop, func() { cancel(); <-done })
	return e
}

// heartbeat runs one timed heartbeat round on every Stream Server.
func (e *env) heartbeat(ctx context.Context, full bool) {
	if e.region == nil {
		return // tcp workers heartbeat on their own ticker
	}
	start := time.Now()
	e.region.HeartbeatAll(ctx, full)
	ms := float64(time.Since(start)) / 1e6
	e.hbMu.Lock()
	e.hbRoundMS = append(e.hbRoundMS, ms)
	e.hbMu.Unlock()
}

func (e *env) heartbeatRounds() []float64 {
	e.hbMu.Lock()
	defer e.hbMu.Unlock()
	return append([]float64(nil), e.hbRoundMS...)
}

// newTCPEnv builds the cluster topology inside this process over real
// sockets: a coordinator, one worker hosting two Stream Servers, and
// the client, each on its own TCPTransport bound to 127.0.0.1:0. The
// worker's transport is wrapped too, so its colossusrpc hop is visible.
func newTCPEnv(tr *tracer, seed int64) (*env, error) {
	sum := sha256.Sum256([]byte(fmt.Sprintf("vortex-benchmark-key-%d", seed)))
	keyHex := hex.EncodeToString(sum[:])
	servers := []clusterd.ServerSpec{
		{Addr: "ss-alpha-w0-0", Cluster: "alpha"},
		{Addr: "ss-beta-w0-1", Cluster: "beta"},
	}
	shared := clusterd.NodeConfig{
		Clusters:         []string{"alpha", "beta"},
		SMSTasks:         2,
		Key:              keyHex,
		MaxFragmentBytes: fragmentBytes,
		HeartbeatEveryMS: heartbeatEvery.Milliseconds(),
	}
	e := &env{tr: tr, smsAddrs: []string{"sms-0", "sms-1"}}
	listen := func() (*rpc.TCPTransport, string, error) {
		t := rpc.NewTCPTransport()
		addr, err := t.Listen("127.0.0.1:0")
		if err != nil {
			return nil, "", err
		}
		e.stop = append(e.stop, func() { t.Close() })
		return t, addr, nil
	}
	coordTr, coordAddr, err := listen()
	if err != nil {
		return nil, err
	}
	workerTr, workerAddr, err := listen()
	if err != nil {
		e.close()
		return nil, err
	}
	routes := map[string]string{
		colossusrpc.DefaultAddr: coordAddr, readsession.DefaultAddr: coordAddr,
		"sms-0": coordAddr, "sms-1": coordAddr,
		servers[0].Addr: workerAddr, servers[1].Addr: workerAddr,
	}
	coordTr.AddRoutes(routes)
	workerTr.AddRoutes(routes)

	coordCfg := shared
	coordCfg.Role = "coordinator"
	coordCfg.AllServers = servers
	co, err := clusterd.StartCoordinator(coordTr, coordCfg)
	if err != nil {
		e.close()
		return nil, err
	}
	workerCfg := shared
	workerCfg.Role = "worker"
	workerCfg.Servers = servers
	w, err := clusterd.StartWorker(wrapNet(tr, "worker", workerTr), workerCfg)
	if err != nil {
		e.close()
		return nil, err
	}
	e.worker = w
	// Stop the worker before any transport closes.
	e.stop = append(e.stop, w.Stop)

	clientTr := rpc.NewTCPTransport()
	clientTr.AddRoutes(routes)
	e.stop = append(e.stop, func() { clientTr.Close() })
	e.keyring = blockenc.NewKeyring()
	if err := e.keyring.SetKey(blockenc.SystemKey, sum[:]); err != nil {
		e.close()
		return nil, err
	}
	e.net = wrapNet(tr, "client", clientTr)
	e.store = wrapStore(tr, colossusrpc.NewRemote(e.net, colossusrpc.DefaultAddr))
	e.router = clusterd.Router(shared.SMSTasks)
	e.clock = truetime.NewSystem(4*time.Millisecond, 0)
	e.colossus = co.Region
	e.index = co.BigMeta
	return e, nil
}

// close stops everything the environment started, newest first, and
// waits for it.
func (e *env) close() {
	for i := len(e.stop) - 1; i >= 0; i-- {
		e.stop[i]()
	}
	e.stop = nil
}

func (e *env) newClient(opts client.Options) *client.Client {
	c := client.New(e.net, e.router, e.store, e.keyring, e.clock, opts)
	if e.region != nil {
		e.region.RegisterReadCache(c.ReadCache())
	}
	return c
}

func (e *env) newEngine(c *client.Client) *query.Engine {
	return query.New(c, e.index, e.net, e.router, query.Config{Shards: generators})
}

// readServer starts a read-session service of the benchmark's own at
// addr, scanning through a client with the given cache options — so the
// cache under the scan is sized by the workload and its Colossus reads
// pass through the wrapped store.
func (e *env) readServer(addr string, opts client.Options) (*client.Client, *readsession.Server) {
	c := e.newClient(opts)
	return c, readsession.NewServer(addr, c, e.index, e.clock)
}

// storedBytes is what Colossus holds now, over every cluster: both
// replicas of every file that garbage collection has left.
func (e *env) storedBytes() (int64, error) {
	var total int64
	for _, name := range e.colossus.ClusterNames() {
		cl := e.colossus.Cluster(name)
		paths, err := cl.List("")
		if err != nil {
			return 0, err
		}
		for _, p := range paths {
			n, err := cl.Size(p)
			if err != nil {
				return 0, err
			}
			total += n
		}
	}
	return total, nil
}

// collectGarbage lets deletion timestamps fall behind the clock's
// uncertainty, then runs the groomer on every SMS task between full
// heartbeat rounds, so files retired by conversion are gone before
// stored bytes are counted.
func (e *env) collectGarbage(ctx context.Context) error {
	time.Sleep(15 * time.Millisecond)
	e.heartbeat(ctx, true)
	for _, addr := range e.smsAddrs {
		if _, err := e.net.Unary(ctx, addr, wire.MethodGC, &wire.GCRequest{Retention: 1}); err != nil {
			return fmt.Errorf("gc on %s: %w", addr, err)
		}
	}
	e.heartbeat(ctx, true)
	e.heartbeat(ctx, true)
	return nil
}

// counts tallies operations for the failed/attempted line: an operation
// that errs, is refused, or answers wrongly is a failed operation.
type counts struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	firstErr  string
}

func (c *counts) add(attempted, failed int64) {
	c.mu.Lock()
	c.attempted += attempted
	c.failed += failed
	c.mu.Unlock()
}

// note keeps the first reason anything failed.
func (c *counts) note(format string, args ...any) {
	c.mu.Lock()
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf(format, args...)
	}
	c.mu.Unlock()
}

// fail records one failed operation and why.
func (c *counts) fail(format string, args ...any) {
	c.note(format, args...)
	c.add(1, 1)
}

// check counts one oracle as an attempted operation, failed unless ok.
func (c *counts) check(ok bool, format string, args ...any) {
	if ok {
		c.add(1, 0)
		return
	}
	c.fail(format, args...)
}

// writer is one append stream and the table it feeds.
type writer struct {
	s     *client.Stream
	table int
}

// openWriters creates n UNBUFFERED streams round-robin over tables and
// deals them to the generators.
func openWriters(ctx context.Context, c *client.Client, tables []meta.TableID, n int) ([generators][]writer, error) {
	var out [generators][]writer
	for i := 0; i < n; i++ {
		t := i % len(tables)
		s, err := c.CreateStream(ctx, tables[t], meta.Unbuffered)
		if err != nil {
			return out, fmt.Errorf("create stream %d: %w", i, err)
		}
		out[i%generators] = append(out[i%generators], writer{s: s, table: t})
	}
	return out, nil
}

// waitUntil returns at due. A sleeping goroutine on the sandbox wakes
// half a millisecond late, and later than one when both processors are
// busy — many times the append it is about to time — so the last two
// milliseconds are spent watching the clock. (Yielding in that loop
// instead sends the generator through the scheduler's global queue some
// millions of times a second, and the appends of the other generator
// with it: their median then spread twice as wide from run to run.)
func waitUntil(due time.Time) {
	const spin = 2 * time.Millisecond
	if d := time.Until(due); d > spin {
		time.Sleep(d - spin)
	}
	for time.Now().Before(due) {
	}
}

// appendRun is what one append phase did.
type appendRun struct {
	samples   []sample  // per append, timed from when it was due
	lateMS    []float64 // how late the generator issued each append
	began     time.Time
	elapsed   time.Duration
	acked     []digest // by table: the rows the system acknowledged
	userBytes int64    // row-encoded bytes of the acknowledged rows
	appends   int64
}

// rowsPerSecond is the closed-loop rate of all generators together: the
// upper quartile over the run's slices.
func (r *appendRun) rowsPerSecond() float64 { return quietRate(sliceRates(r.samples), upperQuartile) }

// extend adds a later run to r as if it had followed on directly.
func (r *appendRun) extend(o *appendRun) {
	for i := range o.samples {
		o.samples[i].at += r.elapsed.Seconds()
	}
	r.merge(o)
	r.elapsed += o.elapsed
}

func (r *appendRun) merge(o *appendRun) {
	r.samples = append(r.samples, o.samples...)
	r.lateMS = append(r.lateMS, o.lateMS...)
	for len(r.acked) < len(o.acked) {
		r.acked = append(r.acked, digest{})
	}
	for t, d := range o.acked {
		r.acked[t].merge(d)
	}
	r.userBytes += o.userBytes
	r.appends += o.appends
}

// pools is the batches each generator appends, in order.
type pools [generators][]batch

// shared hands every generator the same pool, each starting at a
// different place in it.
func shared(pool []batch) pools {
	var p pools
	for g := range p {
		at := g * len(pool) / generators
		p[g] = append(append([]batch(nil), pool[at:]...), pool[:at]...)
	}
	return p
}

// dealt deals the batches out, one generator after the other, so that
// every batch is appended exactly once.
func dealt(batches []batch) pools {
	var p pools
	for i, b := range batches {
		p[i%generators] = append(p[i%generators], b)
	}
	return p
}

// appendPlan is one append phase: who appends what, how often.
type appendPlan struct {
	writers [generators][]writer
	tables  int // how many tables the writers feed
	pool    pools
	// interval > 0 is an open loop: append i of a generator is due at
	// start + i*interval whatever happened to the ones before it, and is
	// timed from then, so a stall charges every append it delays.
	// interval 0 is a closed loop: each append is due when the previous
	// one returned.
	interval time.Duration
	// count is the appends per generator, cycling through its pool;
	// 0 means once through the pool.
	count int
}

// overrun is how far past its schedule an open loop may run before the
// appends it has not yet issued are given up as failed: a system that
// far behind is not keeping up, and a run must end.
const overrun = 3

// runAppends drives every generator through its share of the plan,
// multiplexing its writers round-robin.
func runAppends(ctx context.Context, tr *tracer, plan appendPlan, cnt *counts) *appendRun {
	ws, tables, pool, interval := plan.writers, plan.tables, plan.pool, plan.interval
	parts := make([]*appendRun, generators)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g, count int) {
			defer wg.Done()
			if count == 0 || len(ws[g]) == 0 {
				count = len(pool[g])
			}
			res := &appendRun{acked: make([]digest, tables), samples: make([]sample, 0, count)}
			parts[g] = res
			if len(ws[g]) == 0 {
				return // a load confined to one stream gives the others nothing
			}
			var failed int64
			limit := overrun*time.Duration(count)*interval + 2*time.Second
			for i := 0; i < count; i++ {
				if interval > 0 && time.Since(start) > limit {
					failed += int64(count - i)
					cnt.note("open loop %dx behind schedule after %d of %d appends; gave the rest up", overrun, i, count)
					break
				}
				due := time.Now()
				if interval > 0 {
					due = start.Add(time.Duration(i) * interval)
					waitUntil(due)
					res.lateMS = append(res.lateMS, float64(time.Since(due))/1e6)
				}
				w := ws[g][i%len(ws[g])]
				b := &pool[g][i%len(pool[g])]
				opCtx, end := ctx, func() {}
				if tr != nil {
					opCtx, end = tr.startOp(ctx, "append", g)
				}
				_, err := w.s.Append(opCtx, b.rows)
				end()
				took := sample{at: due.Sub(start).Seconds(), ms: float64(time.Since(due)) / 1e6}
				if err == nil {
					took.rows = len(b.rows)
				}
				res.samples = append(res.samples, took)
				if err != nil {
					failed++
					cnt.note("append: %v", err)
					continue
				}
				res.acked[w.table].merge(b.digest)
				res.userBytes += b.userBytes
			}
			res.appends = int64(count)
			cnt.add(int64(count), failed)
		}(g, plan.count)
	}
	wg.Wait()
	out := &appendRun{began: start, elapsed: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// drainRun is what one read-session drain did.
type drainRun struct {
	rows    int64
	elapsed time.Duration
	openMS  float64
	stats   readsession.Stats
	waitNS  int64 // reader time inside Shard.Next (traced runs only)
}

// drain opens a read session of at most `generators` shards and pulls
// every shard to EOF on its own reader goroutine, committing after each
// batch. visit, when set, sees every batch (the verification passes);
// timed passes leave it nil and touch only the row counts.
func drain(ctx context.Context, tr *tracer, conn *readsession.Conn, table meta.TableID, opts readsession.Options, visit func(reader int, b *readsession.Batch)) (drainRun, error) {
	opts.Shards = generators
	start := time.Now()
	sess, err := conn.Open(ctx, table, opts)
	if err != nil {
		return drainRun{}, fmt.Errorf("open read session on %s: %w", table, err)
	}
	run := drainRun{openMS: float64(time.Since(start)) / 1e6}
	shards := sess.Shards()
	errs := make([]error, len(shards))
	waits := make([]int64, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *readsession.Shard) {
			defer wg.Done()
			opCtx, end := ctx, func() {}
			if tr != nil {
				opCtx, end = tr.startOp(ctx, "drain", i)
			}
			defer end()
			for {
				var t0 time.Time
				if tr != nil {
					t0 = time.Now()
				}
				b, err := sh.Next(opCtx)
				if tr != nil {
					waits[i] += int64(time.Since(t0))
				}
				if err == io.EOF {
					return
				}
				if err != nil {
					errs[i] = err
					return
				}
				if visit != nil {
					visit(i, b)
				}
				sh.Commit()
			}
		}(i, sh)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	run.stats = sess.Stats()
	run.rows = run.stats.Rows
	for _, w := range waits {
		run.waitNS += w
	}
	if err := sess.Close(ctx); err != nil {
		return run, fmt.Errorf("close read session on %s: %w", table, err)
	}
	for _, err := range errs {
		if err != nil {
			return run, fmt.Errorf("drain %s: %w", table, err)
		}
	}
	return run, nil
}

// batchDigester fingerprints the named data columns of drained batches,
// one accumulator per reader so readers do not share state.
type batchDigester struct {
	cols []string
	per  [generators]digest
}

func (d *batchDigester) visit(reader int, b *readsession.Batch) {
	idx := make([]int, len(d.cols))
	for i, name := range d.cols {
		idx[i] = -1
		for j := range b.Rec.Cols {
			if b.Rec.Cols[j].Name == name {
				idx[i] = j
			}
		}
	}
	vals := make([]schema.Value, len(idx))
	for r := 0; r < b.Rec.NumRows; r++ {
		for i, j := range idx {
			if j < 0 {
				vals[i] = schema.Null()
			} else {
				vals[i] = b.Rec.Cols[j].Values[r]
			}
		}
		d.per[reader].add(hashValues(vals))
	}
}

func (d *batchDigester) total() digest {
	var t digest
	for _, p := range d.per {
		t.merge(p)
	}
	return t
}

func fieldNames(sc *schema.Schema) []string {
	names := make([]string, len(sc.Fields))
	for i, f := range sc.Fields {
		names[i] = f.Name
	}
	return names
}

// resultDigest fingerprints a statement's result rows.
func resultDigest(res *query.Result) digest {
	var d digest
	for _, row := range res.Rows() {
		d.add(hashValues(row))
	}
	return d
}

// pass drains each table once through conn at the given snapshot and
// returns the drains.
func pass(ctx context.Context, tr *tracer, conn *readsession.Conn, tables []meta.TableID, opts readsession.Options, visit func(table int) func(int, *readsession.Batch)) ([]drainRun, error) {
	runs := make([]drainRun, 0, len(tables))
	for t, table := range tables {
		var v func(int, *readsession.Batch)
		if visit != nil {
			v = visit(t)
		}
		r, err := drain(ctx, tr, conn, table, opts, v)
		if err != nil {
			return runs, err
		}
		runs = append(runs, r)
	}
	return runs, nil
}

// scanned is the table rows a drain went through: the rows it returned
// plus the rows its predicate dropped.
func scanned(r drainRun) int64 { return max(r.stats.RowsScanned, r.rows) }

// rowsPerSecond is the upper decile over the drains of table rows
// scanned per second. A drain lasts tens of milliseconds to most of a
// second and meets a collection more often than not (two drains in three
// on mixed_cdc), so the undisturbed drains begin above the upper quartile.
func rowsPerSecond(runs []drainRun) float64 {
	rates := make([]float64, len(runs))
	for i, r := range runs {
		rates[i] = ratio(float64(scanned(r)), r.elapsed.Seconds())
	}
	return quietRate(rates, upperDecile)
}

// readBack is the read half of the append workloads: one pass over the
// tables through each of the cold services, which have nothing cached
// (cold_scan_rows_per_s), then warm passes through the last of them
// until budget is spent, at least one (scan_rows_per_s). It returns the
// warm drains for the layer metrics.
func readBack(ctx context.Context, tr *tracer, m *measurement, consumer *client.Client, coldAddrs []string, tables []meta.TableID, opts readsession.Options, budget time.Duration) ([]drainRun, error) {
	start := time.Now()
	var cold []drainRun
	var conn *readsession.Conn
	for _, addr := range coldAddrs {
		conn = readsession.Dial(consumer, addr)
		runs, err := pass(ctx, tr, conn, tables, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("cold pass: %w", err)
		}
		cold = append(cold, runs...)
	}
	m.set("cold_scan_rows_per_s", rowsPerSecond(cold))
	m.samples["cold_scan_rows_per_s"] = len(cold)
	var warm []drainRun
	for len(warm) == 0 || time.Since(start) < budget {
		runs, err := pass(ctx, tr, conn, tables, opts, nil)
		if err != nil {
			return nil, fmt.Errorf("warm pass: %w", err)
		}
		warm = append(warm, runs...)
	}
	m.set("scan_rows_per_s", rowsPerSecond(warm))
	m.samples["scan_rows_per_s"] = len(warm)
	m.counts.add(int64(len(cold)+len(warm)), 0)
	return warm, nil
}

// verifyTables drains every table once more, untimed, fingerprinting all
// columns, and holds the result to what the generators were
// acknowledged: a lost row, a phantom row or a changed value fails.
func verifyTables(ctx context.Context, m *measurement, conn *readsession.Conn, tables []meta.TableID, sc *schema.Schema, opts readsession.Options, want []digest) error {
	got := make([]*batchDigester, len(tables))
	_, err := pass(ctx, nil, conn, tables, opts, func(t int) func(int, *readsession.Batch) {
		got[t] = &batchDigester{cols: fieldNames(sc)}
		return got[t].visit
	})
	if err != nil {
		return err
	}
	for t, table := range tables {
		d := got[t].total()
		m.counts.check(d == want[t], "read-back of %s: %d rows digest %x, acknowledged %d rows digest %x (lost %d, phantom %d)",
			table, d.Rows, d.Sum, want[t].Rows, want[t].Sum, max(want[t].Rows-d.Rows, 0), max(d.Rows-want[t].Rows, 0))
	}
	return nil
}
