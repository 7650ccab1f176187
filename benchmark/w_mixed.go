package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"vortex/internal/client"
	"vortex/internal/dataflow"
	"vortex/internal/dml"
	"vortex/internal/matview"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// The mixed_cdc workload runs writes beside reads on the same layers,
// with conversion in the background: one generator appends
// change-data-capture rows to `orders` open-loop while the other
// refreshes a joined GROUP BY materialized view back-to-back, one
// snapshot query between refreshes. A read-path gain bought with heavier
// ingest, or a convert speed-up that stalls the foreground, shows here
// and nowhere else.
const (
	mixedBaseOrders  = 40000
	mixedLoadBatch   = 50
	mixedAppendRate  = 100 // change appends per second, open loop
	mixedAppendRows  = 20
	mixedWindowShare = 0.85 // of the window; the read-back takes the rest
	mixedConvertGap  = 2 * time.Second
	mixedColdPasses  = 3 // fresh read-session services for the cold read-back
	mixedPinned      = 3 // snapshots the view is recomputed at afterwards
	mixedView        = "bench.bycountry"
	mixedViewSQL     = "CREATE MATERIALIZED VIEW " + mixedView + " AS SELECT c.country AS country, COUNT(*) AS orders, SUM(o.qty) AS qty FROM " +
		scanKeyed + " AS o JOIN " + scanDim + " AS c ON o.customerKey = c.customerKey GROUP BY c.country"
	mixedQuery = "SELECT status, COUNT(*), SUM(qty) FROM " + scanKeyed + " GROUP BY status"
)

type mixedDriver struct {
	seconds float64

	model     *orderModel
	base      []batch
	changes   []batch // the open-loop change appends, in order
	pinned    []batch // change appends made between the pinned recomputes
	customers batch
	user      int64

	env        *env
	writer     *client.Client
	consumer   *client.Client
	engine     *query.Engine
	maintainer *matview.Maintainer
	def        *matview.Definition
	opt        *optimizer.Optimizer
	cdc        [generators][]writer
	loadRun    *appendRun
	window     int64
	appends    int64
	passes     int
	readAddr   string
}

func newMixedCDC(seed int64, seconds, scale float64) driver {
	w := &mixedDriver{seconds: seconds, model: newOrderModel(seed)}
	base := make([]schema.Row, int(mixedBaseOrders*scale))
	for i := range base {
		base[i] = w.model.insert()
	}
	w.base = chunk(base, mixedLoadBatch)
	w.customers = newBatch(customerRows())
	// The reference is the model after every change row; the rows are
	// all generated here, before any is appended.
	nChanges := int(mixedWindowShare*seconds*mixedAppendRate) + mixedPinned
	for i := 0; i < nChanges; i++ {
		rows := make([]schema.Row, mixedAppendRows)
		for j := range rows {
			rows[j] = w.model.churn()
		}
		w.changes = append(w.changes, newBatch(rows))
	}
	w.pinned, w.changes = w.changes[nChanges-mixedPinned:], w.changes[:nChanges-mixedPinned]
	for _, bs := range [][]batch{w.base, w.changes, w.pinned, {w.customers}} {
		for _, b := range bs {
			w.user += b.userBytes
		}
	}
	return w
}

func (w *mixedDriver) config() map[string]any {
	return map[string]any{
		"transport": "mem", "base_orders": len(w.base) * mixedLoadBatch, "customers": cdcCustomers, "countries": cdcCountries,
		"change_appends_per_s": mixedAppendRate, "rows_per_change_append": mixedAppendRows, "view": mixedViewSQL,
		"query": mixedQuery, "convert_every_ms": mixedConvertGap.Milliseconds(), "concurrent_share": mixedWindowShare,
		"pinned_recomputes": mixedPinned, "heartbeat_ms": heartbeatEvery.Milliseconds(), "fragment_bytes": fragmentBytes,
		"latency_profile": "zero",
	}
}

func (w *mixedDriver) setup(ctx context.Context, tr *tracer) (float64, error) {
	start := time.Now()
	w.env = newMemEnv(tr)
	e := w.env
	w.writer = e.newClient(client.DefaultOptions())
	for table, sc := range map[meta.TableID]*schema.Schema{scanKeyed: ordersSchema(), scanDim: customersSchema()} {
		if err := w.writer.CreateTable(ctx, table, sc); err != nil {
			return 0, err
		}
	}
	if w.loadRun == nil {
		w.loadRun = &appendRun{} // loads of every set-up repetition add up
	}
	for _, l := range []struct {
		table   meta.TableID
		batches []batch
	}{{scanDim, []batch{w.customers}}, {scanKeyed, w.base}} {
		ws, err := openWriters(ctx, w.writer, []meta.TableID{l.table}, generators)
		if err != nil {
			return 0, err
		}
		var cnt counts
		run := runAppends(ctx, nil, appendPlan{writers: ws, tables: 1, pool: dealt(l.batches)}, &cnt)
		if cnt.failed > 0 {
			return 0, fmt.Errorf("loading %s: %d appends failed", l.table, cnt.failed)
		}
		w.loadRun.extend(run)
		for _, g := range ws {
			for _, wr := range g {
				if _, err := wr.s.Finalize(ctx); err != nil {
					return 0, err
				}
			}
		}
	}
	var err error
	w.def, err = matview.Compile(mixedViewSQL, func(t meta.TableID) (*schema.Schema, error) { return w.writer.GetSchema(ctx, t) })
	if err != nil {
		return 0, err
	}
	if err := w.writer.CreateTable(ctx, w.def.View, w.def.ViewSchema); err != nil {
		return 0, err
	}
	if w.maintainer, err = matview.NewMaintainer(e.newClient(client.DefaultOptions()), w.def, matview.NewMemStore(), generators); err != nil {
		return 0, err
	}
	if _, err := w.maintainer.Refresh(ctx); err != nil {
		return 0, fmt.Errorf("initial view build: %w", err)
	}
	// The change stream is one stream, so change rows keep their order.
	w.cdc = [generators][]writer{}
	s, err := w.writer.CreateStream(ctx, scanKeyed, meta.Unbuffered)
	if err != nil {
		return 0, err
	}
	w.cdc[0] = []writer{{s: s}}
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = benchCacheBytes
	w.engine = e.newEngine(e.newClient(opts))
	w.consumer = e.newClient(client.DefaultOptions())
	w.opt = optimizer.New(optimizer.DefaultConfig(), w.writer, e.net, e.router, e.colossus, e.clock)
	return time.Since(start).Seconds(), nil
}

type interval struct{ start, end time.Time }

func (w *mixedDriver) run(ctx context.Context, m *measurement) error {
	e, tr := w.env, w.env.tr
	if tr != nil {
		w.window = tr.now()
	}
	runtime.GC() // the window starts from a collected heap
	before := e.snap(w.writer, nil, nil)
	end := func() {}
	if tr != nil {
		end = tr.startPhase("concurrent")
	}

	// Background: conversion of `orders` every two seconds.
	bgCtx, stopBg := context.WithCancel(ctx)
	var bg sync.WaitGroup
	var converts []optimizer.Result
	var convertMS []float64
	var convertErr error
	bg.Add(1)
	go func() {
		defer bg.Done()
		ticker := time.NewTicker(mixedConvertGap)
		defer ticker.Stop()
		for {
			select {
			case <-bgCtx.Done():
				return
			case <-ticker.C:
				opCtx, endOp := ctx, func() {}
				if tr != nil {
					opCtx, endOp = tr.startOp(ctx, "convert", 2)
				}
				t0 := time.Now()
				res, err := w.opt.ConvertTable(opCtx, scanKeyed)
				endOp()
				if err != nil {
					convertErr = err
					return
				}
				converts = append(converts, res)
				convertMS = append(convertMS, float64(time.Since(t0))/1e6)
			}
		}
	}()

	// Generator 2: refresh, query, refresh, … until the appender is done
	// and one more refresh has covered its last append.
	appendsDone := make(chan struct{})
	var refreshes []interval
	var refreshStats []*matview.RefreshStats
	var querySamples []sample
	var cycleErr error
	var cycles sync.WaitGroup
	cycles.Add(1)
	go func() {
		defer cycles.Done()
		start := time.Now()
		for last := false; !last; {
			select {
			case <-appendsDone:
				last = true
			default:
			}
			opCtx, endOp := ctx, func() {}
			if tr != nil {
				opCtx, endOp = tr.startOp(ctx, "refresh", 1)
			}
			t0 := time.Now()
			st, err := w.maintainer.Refresh(opCtx)
			endOp()
			if err != nil {
				cycleErr = fmt.Errorf("refresh: %w", err)
				return
			}
			refreshes = append(refreshes, interval{t0, time.Now()})
			refreshStats = append(refreshStats, st)
			if tr != nil {
				opCtx, endOp = tr.startOp(ctx, "stmt:q_pk", 1)
			}
			t0 = time.Now()
			_, err = w.engine.Query(opCtx, mixedQuery)
			endOp()
			if err != nil {
				cycleErr = fmt.Errorf("query: %w", err)
				return
			}
			querySamples = append(querySamples, sample{at: t0.Sub(start).Seconds(), ms: float64(time.Since(t0)) / 1e6})
		}
	}()

	// Generator 1: the open-loop change stream.
	appendRun := runAppends(ctx, tr, appendPlan{writers: w.cdc, tables: 1, pool: pools{w.changes}, interval: time.Second / mixedAppendRate}, &m.counts)
	close(appendsDone)
	cycles.Wait()
	stopBg()
	bg.Wait()
	end()
	if cycleErr != nil {
		return cycleErr
	}
	if convertErr != nil {
		return fmt.Errorf("background conversion: %w", convertErr)
	}
	m.counts.add(int64(len(refreshes)+len(querySamples)+len(converts)), 0)
	after := e.snap(w.writer, nil, nil)
	w.appends = appendRun.appends

	m.appendTimings(appendRun.samples)
	m.set("append_rows_per_s", w.loadRun.rowsPerSecond())
	m.set("gen.lateness_ms_p99", quantile(sortedCopy(appendRun.lateMS), 0.99))
	m.timing("query_p50_ms", "", 0, querySamples)
	m.p50("query.stmt_ms_p50.q_pk", millis(querySamples))
	appendLayers(m, before, after, w.appends, 0)
	m.p50("sms.heartbeat_round_ms_p50", e.heartbeatRounds())

	// Freshness: from an append's due time to the end of the first
	// refresh that started after its acknowledgement.
	var fresh []sample
	for _, s := range appendRun.samples {
		due := appendRun.began.Add(time.Duration(s.at * float64(time.Second)))
		acked := due.Add(time.Duration(s.ms * float64(time.Millisecond)))
		i := sort.Search(len(refreshes), func(i int) bool { return !refreshes[i].start.Before(acked) })
		if i < len(refreshes) {
			fresh = append(fresh, sample{at: s.at, ms: float64(refreshes[i].end.Sub(due)) / 1e6})
		}
	}
	m.timing("freshness_p50_ms", "freshness_p95_ms", 0.95, fresh)

	var refreshMS []float64
	var events, groups, sunk int64
	for i, r := range refreshes {
		refreshMS = append(refreshMS, float64(r.end.Sub(r.start))/1e6)
		events += refreshStats[i].Events
		groups += int64(refreshStats[i].GroupsChanged)
		sunk += int64(refreshStats[i].Upserts + refreshStats[i].Deletes)
	}
	n := float64(len(refreshes))
	m.p50("matview.refresh_ms_p50", refreshMS)
	m.set("matview.events_per_refresh", ratio(float64(events), n))
	m.set("matview.events_per_s", ratio(float64(events), sum(refreshMS)/1e3))
	m.set("matview.groups_changed_per_refresh", ratio(float64(groups), n))
	m.set("matview.sink_rows_per_refresh", ratio(float64(sunk), n))
	m.set(headlineOpMS, ratio(sum(refreshMS)+sum(millis(querySamples)), n))

	var files, frags int
	for _, c := range converts {
		files += c.FilesWritten
		frags += c.FragmentsConverted
	}
	m.set("optimizer.files_written", float64(files))
	m.set("optimizer.convert_ms_per_fragment", ratio(sum(convertMS), float64(frags)))

	// Read-back of `orders`, cold then warm, like the append workloads —
	// after one more conversion, so that how much of the table is ROS
	// does not hang on where the two-second ticker stood when the window
	// closed.
	e.heartbeat(ctx, true)
	if _, err := w.opt.ConvertTable(ctx, scanKeyed); err != nil {
		return fmt.Errorf("closing conversion: %w", err)
	}
	if tr != nil {
		end = tr.startPhase("read_back")
	}
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = benchCacheBytes
	var reader *client.Client
	var sessions *readsession.Server
	var addrs []string
	for i := 0; i < mixedColdPasses; i++ {
		addrs = append(addrs, fmt.Sprintf("%s-%d", benchReadAddr, i))
		reader, sessions = e.readServer(addrs[i], opts)
	}
	w.readAddr = addrs[len(addrs)-1]
	mid := e.snap(w.writer, reader, sessions)
	budget := time.Duration((1 - mixedWindowShare) * w.seconds * float64(time.Second))
	runtime.GC()
	warm, err := readBack(ctx, tr, m, w.consumer, addrs, []meta.TableID{scanKeyed}, readsession.Options{SnapshotTS: e.clock.Now().Latest}, budget)
	end()
	if err != nil {
		return err
	}
	readLayers(m, mid, e.snap(w.writer, reader, sessions))
	drainLayers(m, warm)
	w.passes = 1 + len(warm)
	return nil
}

func (w *mixedDriver) verify(ctx context.Context, m *measurement) error {
	// The view against its defining query, recomputed at the snapshot of
	// a refresh, at three pinned snapshots with more changes in between.
	viewSQL := "SELECT country, orders, qty FROM " + mixedView
	for i, b := range w.pinned {
		var cnt counts
		runAppends(ctx, nil, appendPlan{writers: w.cdc, tables: 1, pool: pools{{b}}}, &cnt)
		if cnt.failed > 0 {
			return fmt.Errorf("pinned change append %d failed", i)
		}
		st, err := w.maintainer.Refresh(ctx)
		if err != nil {
			return err
		}
		recomputed, err := w.engine.QueryAt(ctx, w.def.SelectSQL, st.SnapshotTS)
		if err != nil {
			return err
		}
		view, err := w.engine.Query(ctx, viewSQL)
		if err != nil {
			return err
		}
		got, want := resultDigest(view), resultDigest(recomputed)
		m.counts.check(got == want, "view at pinned snapshot %d: %d rows digest %x, recomputed %d rows digest %x", i+1, got.Rows, got.Sum, want.Rows, want.Sum)
	}
	// Every change row has now been appended: the table, resolved, is the
	// model; and the view is the model's roll-up.
	var mu sync.Mutex
	var stamped []rowenc.Stamped
	_, err := drain(ctx, nil, readsession.Dial(w.consumer, w.readAddr), scanKeyed, readsession.Options{SnapshotTS: w.env.clock.Now().Latest}, func(_ int, b *readsession.Batch) {
		mu.Lock()
		stamped = append(stamped, b.Rows()...)
		mu.Unlock()
	})
	if err != nil {
		return err
	}
	var resolved digest
	for _, r := range dml.ResolveChanges(ordersSchema(), stamped, true) {
		resolved.add(hashValues(r.Row.Values))
	}
	want := w.model.digest()
	m.counts.check(resolved == want, "resolved read-back of %s: %d rows digest %x, model %d rows digest %x",
		scanKeyed, resolved.Rows, resolved.Sum, want.Rows, want.Sum)
	view, err := w.engine.Query(ctx, viewSQL)
	if err != nil {
		return err
	}
	got, ref := resultDigest(view), scanReferences(nil, w.model)["q_join"]
	m.counts.check(got == ref, "view: %d rows digest %x, model roll-up %d rows digest %x", got.Rows, got.Sum, ref.Rows, ref.Sum)
	return storedRatio(ctx, w.env, m, w.user)
}

func (w *mixedDriver) layers(m *measurement, all *spanIndex) {
	ix := all.since(w.window)
	traceLayers(m, all, ix, w.appends)
	m.p50("streamserver.append_handler_ms_p50", ix.matching("client/streamserver:Append"))
	statementLayers(m, ix)
	readTraceLayers(m, ix, w.passes)

	// The change-stream source on its own: read the newest tenth of the
	// table's rows by sequence, as a refresh does.
	ctx := context.Background()
	allRows, err := dataflow.ReadTableRows(ctx, w.consumer, scanKeyed, dataflow.SourceOptions{Shards: generators})
	if err != nil || len(allRows.Rows) == 0 {
		m.counts.fail("reading %s for the source kernel: %v", scanKeyed, err)
		return
	}
	minSeq := allRows.Rows[len(allRows.Rows)*9/10].Seq
	t0 := time.Now()
	delta, err := dataflow.ReadTableRows(ctx, w.consumer, scanKeyed, dataflow.SourceOptions{Shards: generators, MinSeq: minSeq})
	if err != nil {
		m.counts.fail("delta read of %s: %v", scanKeyed, err)
		return
	}
	m.set("dataflow.source_rows_per_s", perSecond(len(delta.Rows), time.Since(t0)))
}

func (w *mixedDriver) kernelInput() kernelInput {
	return kernelInput{schema: ordersSchema(), batches: w.base, filterColumn: "status", filterValue: "paid"}
}

func (w *mixedDriver) close() {
	if w.env != nil {
		w.env.close()
		w.env = nil
	}
}
