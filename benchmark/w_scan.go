package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"vortex/internal/client"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/workload"
)

// The two scan workloads read the same table under opposite cache
// regimes. `scan`: everything fits the RAM read cache, so after the cold
// passes Colossus and the disk tier do nothing (asserted) and ROS
// vectors, the code-space filter, record-batch encode, the read-session
// service, the query engine and Big Metadata pruning do the work.
// `scan_pressure`: the table is groomed into many small ROS files, the
// RAM cache holds a tenth of them and a disk tier twice their size sits
// under it, so fetch tiers, singleflight, prefetch, disk I/O and ROS
// decode dominate and code-space filtering matters little.
const (
	// Row counts at the full ten-second window. A scratch run that
	// converted about two million rows in one ConvertTable call was
	// killed at 16 GB; see the README.
	scanSalesRows  = 60000 // keyless, partitioned; the newest tenth stays WOS
	scanTailShare  = 0.1
	scanOrderRows  = 24000 // primary-key table before churn
	scanChurnShare = 0.25  // change rows on top, as a share of the base
	scanLoadBatch  = 50    // rows per load append
	// scanColdPasses fresh read-session services each read the table
	// once with nothing cached; their upper quartile is the cold rate.
	scanColdPasses = 5
	// pressureROSRows grooms the table into well over 64 files.
	pressureROSRows = 512
	scanOrdersWhere = "status = 'paid'"
)

type scanDriver struct {
	pressure bool
	seconds  float64

	// inputs, generated once per run
	converted, tail []batch // sales rows: converted to ROS, then left in WOS
	orderBase       []batch
	orderChurn      []batch
	customers       batch
	model           *orderModel
	refFiltered     digest            // sales rows passing salesWhere, flat columns
	refStatements   map[string]digest // expected result of each statement
	user            int64

	env        *env
	writer     *client.Client
	consumer   *client.Client
	reader     *client.Client // scan client of the last read-session service
	sessions   *readsession.Server
	readAddr   string
	engine     *query.Engine
	dirs       []string
	loadRun    *appendRun
	convert    optimizer.Result
	convertS   float64
	workingSet int64
	window     int64
	warmFrom   int64 // trace time at which the warm phases began
	passes     int
}

func newScan(seed int64, seconds, scale float64, pressure bool) driver {
	w := &scanDriver{pressure: pressure, seconds: seconds}
	rng := rand.New(rand.NewSource(seed))
	nSales := int(scanSalesRows * scale)
	nTail := int(float64(nSales) * scanTailShare)
	sales := salesRows(rng, 0, nSales)
	w.converted = chunk(sales[:nSales-nTail], scanLoadBatch)
	w.tail = chunk(sales[nSales-nTail:], scanLoadBatch)
	for _, r := range sales {
		if r.Values[5].AsInt64() == salesWhereCurrency {
			w.refFiltered.add(hashValues(project(r, salesFlatIndex)))
		}
	}
	w.model = newOrderModel(seed + 1)
	if !pressure {
		w.customers = newBatch(customerRows())
		nOrders := int(scanOrderRows * scale)
		base := make([]schema.Row, nOrders)
		for i := range base {
			base[i] = w.model.insert()
		}
		churn := make([]schema.Row, int(float64(nOrders)*scanChurnShare))
		for i := range churn {
			churn[i] = w.model.churn()
		}
		w.orderBase, w.orderChurn = chunk(base, scanLoadBatch), chunk(churn, scanLoadBatch)
	}
	w.refStatements = scanReferences(sales, w.model)
	for _, bs := range [][]batch{w.converted, w.tail, w.orderBase, w.orderChurn, {w.customers}} {
		for _, b := range bs {
			w.user += b.userBytes
		}
	}
	return w
}

// scanReferences computes, from the generated rows alone, what each
// statement of the rotation must return.
func scanReferences(sales []schema.Row, model *orderModel) map[string]digest {
	type agg struct{ n, sum int64 }
	dayLo, dayHi := genBase.AddDate(0, 0, 1).UnixNano(), genBase.AddDate(0, 0, 2).UnixNano()
	var filter agg
	byCustomer := make(map[string]*agg)
	for _, r := range sales {
		ts, total := r.Values[0].AsInt64(), r.Values[4].AsNumericScaled()
		if ts >= dayLo && ts < dayHi && r.Values[5].AsInt64() == salesWhereCurrency {
			filter.n++
			filter.sum += total
		}
		c := r.Values[2].AsString()
		if byCustomer[c] == nil {
			byCustomer[c] = &agg{}
		}
		byCustomer[c].n++
		byCustomer[c].sum += total
	}
	refs := make(map[string]digest)
	var d digest
	d.add(hashValues([]schema.Value{schema.Int64(filter.n), schema.Numeric(filter.sum)}))
	refs["q_filter"] = d
	d = digest{}
	for c, a := range byCustomer {
		d.add(hashValues([]schema.Value{schema.String(c), schema.Int64(a.n), schema.Numeric(a.sum)}))
	}
	refs["q_group"] = d

	country := make(map[string]string)
	for _, r := range customerRows() {
		country[r.Values[0].AsString()] = r.Values[1].AsString()
	}
	byCountry, byStatus := make(map[string]*agg), make(map[string]*agg)
	for _, vals := range model.live {
		for key, into := range map[string]map[string]*agg{country[vals[1].AsString()]: byCountry, vals[4].AsString(): byStatus} {
			if into[key] == nil {
				into[key] = &agg{}
			}
			into[key].n++
			into[key].sum += vals[2].AsInt64()
		}
	}
	for name, groups := range map[string]map[string]*agg{"q_join": byCountry, "q_pk": byStatus} {
		d = digest{}
		for key, a := range groups {
			d.add(hashValues([]schema.Value{schema.String(key), schema.Int64(a.n), schema.Int64(a.sum)}))
		}
		refs[name] = d
	}
	return refs
}

func (w *scanDriver) statements() []int {
	if w.pressure {
		return []int{1} // q_group only: the one that reads the whole groomed table
	}
	return []int{0, 1, 2, 3}
}

func (w *scanDriver) config() map[string]any {
	cfg := map[string]any{
		"transport": "mem", "sales_rows": (len(w.converted) + len(w.tail)) * scanLoadBatch, "wos_tail_share": scanTailShare,
		"load_rows_per_append": scanLoadBatch, "projection": salesFlatColumns, "where": salesWhere,
		"cold_passes": scanColdPasses, "readers": generators, "ros_files": w.convert.FilesWritten,
		"working_set_bytes": w.workingSet, "fragment_bytes": fragmentBytes, "latency_profile": "zero",
	}
	if w.pressure {
		cfg["target_ros_rows"] = pressureROSRows
		cfg["ram_cache_bytes"] = w.workingSet / 10
		cfg["disk_cache_bytes"] = 2 * w.workingSet
		cfg["phases"] = "cold passes, then 60% disk-warm session drains, 40% q_group"
	} else {
		cfg["order_rows"] = len(w.orderBase) * scanLoadBatch
		cfg["order_change_rows"] = len(w.orderChurn) * scanLoadBatch
		cfg["ram_cache_bytes"] = benchCacheBytes
		cfg["phases"] = "cold passes, then 35% keyless drains, 25% primary-key drains, 40% statement rotation"
	}
	return cfg
}

// load appends the batches to table over one stream per generator (one
// stream in all when ordered, so change rows keep their order), then
// finalizes the streams: a sealed fragment can be converted, and can be
// cached, where the live tail of an open stream is read from Colossus
// every time.
func (w *scanDriver) load(ctx context.Context, table meta.TableID, batches []batch, ordered bool) error {
	if len(batches) == 0 {
		return nil
	}
	streams, p := generators, dealt(batches)
	if ordered {
		streams, p = 1, pools{batches}
	}
	ws, err := openWriters(ctx, w.writer, []meta.TableID{table}, streams)
	if err != nil {
		return err
	}
	var cnt counts
	run := runAppends(ctx, nil, appendPlan{writers: ws, tables: 1, pool: p}, &cnt)
	if cnt.failed > 0 {
		return fmt.Errorf("loading %s: %d appends failed", table, cnt.failed)
	}
	if table == scanKeyless {
		// The append metrics of this workload are those of loading its
		// main table; loads of every set-up repetition add up.
		w.loadRun.extend(run)
	}
	for _, g := range ws {
		for _, wr := range g {
			if _, err := wr.s.Finalize(ctx); err != nil {
				return fmt.Errorf("finalizing a stream of %s: %w", table, err)
			}
		}
	}
	return nil
}

func (w *scanDriver) setup(ctx context.Context, tr *tracer) (float64, error) {
	start := time.Now()
	w.env = newMemEnv(tr)
	e := w.env
	w.writer = e.newClient(client.DefaultOptions())
	if w.loadRun == nil {
		w.loadRun = &appendRun{}
	}
	tables := map[meta.TableID]*schema.Schema{scanKeyless: workload.SalesSchema()}
	if !w.pressure {
		tables[scanKeyed], tables[scanDim] = ordersSchema(), customersSchema()
	}
	for table, sc := range tables {
		if err := w.writer.CreateTable(ctx, table, sc); err != nil {
			return 0, err
		}
	}
	if err := w.load(ctx, scanKeyless, w.converted, false); err != nil {
		return 0, err
	}
	e.heartbeat(ctx, true)
	ocfg := optimizer.DefaultConfig()
	if w.pressure {
		ocfg.TargetROSRows = pressureROSRows
	}
	opt := optimizer.New(ocfg, w.writer, e.net, e.router, e.colossus, e.clock)
	t0 := time.Now()
	var err error
	if w.convert, err = opt.ConvertTable(ctx, scanKeyless); err != nil {
		return 0, fmt.Errorf("converting %s: %w", scanKeyless, err)
	}
	w.convertS = time.Since(t0).Seconds()
	if want := int64(len(w.converted) * scanLoadBatch); w.convert.RowsConverted != want {
		return 0, fmt.Errorf("conversion took %d rows, loaded %d", w.convert.RowsConverted, want)
	}
	if err := w.load(ctx, scanKeyless, w.tail, false); err != nil {
		return 0, err
	}
	if !w.pressure {
		if err := w.load(ctx, scanDim, []batch{w.customers}, true); err != nil {
			return 0, err
		}
		if err := w.load(ctx, scanKeyed, w.orderBase, false); err != nil {
			return 0, err
		}
		if err := w.load(ctx, scanKeyed, w.orderChurn, true); err != nil {
			return 0, err
		}
	}
	e.heartbeat(ctx, true)
	w.consumer = e.newClient(client.DefaultOptions())
	spent := time.Since(start).Seconds()

	// The working set is the groomed table's file bytes in one cluster.
	w.workingSet = 0
	cl := e.colossus.Cluster(e.colossus.ClusterNames()[0])
	paths, err := cl.List("ros/" + scanKeyless + "/")
	if err != nil {
		return 0, err
	}
	for _, p := range paths {
		n, err := cl.Size(p)
		if err != nil {
			return 0, err
		}
		w.workingSet += n
	}
	if want := 64 * len(w.converted) * scanLoadBatch / (scanSalesRows * 9 / 10); w.pressure && len(paths) < want {
		return 0, fmt.Errorf("groomed into %d ROS files, want at least %d", len(paths), want)
	}
	return spent, nil
}

// readerOptions sizes the cache under a read-session service: all of it
// in RAM for scan; a tenth in RAM over a fresh disk tier for pressure.
func (w *scanDriver) readerOptions() (client.Options, error) {
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = benchCacheBytes
	if w.pressure {
		dir, err := scratchDir("scan-pressure-")
		if err != nil {
			return opts, err
		}
		w.dirs = append(w.dirs, dir)
		opts.ReadCacheBytes = max(w.workingSet/10, 1)
		opts.DiskCacheDir = dir
		opts.DiskCacheBytes = 2 * w.workingSet
	}
	return opts, nil
}

var salesScan = readsession.Options{Columns: salesFlatColumns, Where: salesWhere}

// drainFor repeats a drain of table until d has passed.
func (w *scanDriver) drainFor(ctx context.Context, table meta.TableID, opts readsession.Options, d time.Duration, m *measurement) ([]drainRun, error) {
	conn := readsession.Dial(w.consumer, w.readAddr)
	var runs []drainRun
	for start := time.Now(); len(runs) == 0 || time.Since(start) < d; {
		r, err := drain(ctx, w.env.tr, conn, table, opts, nil)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	m.counts.add(int64(len(runs)), 0)
	return runs, nil
}

func (w *scanDriver) run(ctx context.Context, m *measurement) error {
	e, tr := w.env, w.env.tr
	if tr != nil {
		w.window = tr.now()
	}
	window := time.Duration(w.seconds * float64(time.Second))
	phase := func(name string) func() {
		if tr == nil {
			return func() {}
		}
		return tr.startPhase(name)
	}

	// What set-up already measured: the load is the closed-loop append
	// run of this workload, and the conversion its WOS→ROS rate.
	m.appendTimings(w.loadRun.samples)
	m.set("append_rows_per_s", w.loadRun.rowsPerSecond())
	m.set("convert_rows_per_s", ratio(float64(w.convert.RowsConverted), w.convertS))
	m.set("optimizer.files_written", float64(w.convert.FilesWritten))
	m.set("optimizer.convert_ms_per_fragment", ratio(w.convertS*1e3, float64(w.convert.FragmentsConverted)))
	var convertedUser int64
	for _, b := range w.converted {
		convertedUser += b.userBytes
	}
	m.set("optimizer.bytes_rewritten_per_user_byte", ratio(float64(generators*w.workingSet), float64(convertedUser)))

	// Cold: a fresh service, nothing cached in any tier, one pass each.
	end := phase("cold")
	var cold []drainRun
	for i := 0; i < scanColdPasses; i++ {
		opts, err := w.readerOptions()
		if err != nil {
			return err
		}
		w.readAddr = fmt.Sprintf("%s-%d", benchReadAddr, i)
		w.reader, w.sessions = e.readServer(w.readAddr, opts)
		runtime.GC()
		r, err := drain(ctx, tr, readsession.Dial(w.consumer, w.readAddr), scanKeyless, salesScan, nil)
		if err != nil {
			return fmt.Errorf("cold pass: %w", err)
		}
		cold = append(cold, r)
	}
	end()
	m.set("cold_scan_rows_per_s", rowsPerSecond(cold))
	m.samples["cold_scan_rows_per_s"] = len(cold)
	m.counts.add(scanColdPasses, 0)
	// One untimed pass of everything the warm phases touch: from here on
	// the working set is cached, or is known not to fit.
	w.engine = e.newEngine(w.reader)
	if err := w.warm(ctx); err != nil {
		return err
	}
	runtime.GC()
	if tr != nil {
		w.warmFrom = tr.now()
	}
	before := e.snap(w.writer, w.reader, w.sessions)

	// Shares of the window: keyless drains, primary-key drains, statements.
	shares := [3]float64{0.35, 0.25, 0.4}
	if w.pressure {
		shares = [3]float64{0.6, 0, 0.4}
	}
	part := func(i int) time.Duration { return time.Duration(shares[i] * float64(window)) }
	end = phase("keyless_drains")
	keyless, err := w.drainFor(ctx, scanKeyless, salesScan, part(0), m)
	end()
	if err != nil {
		return err
	}
	m.set("scan_rows_per_s", rowsPerSecond(keyless))
	m.samples["scan_rows_per_s"] = len(keyless)
	m.set(headlineOpMS, ratio(sumElapsedMS(keyless), float64(len(keyless))))
	drainLayers(m, keyless)
	w.passes = len(keyless)

	if !w.pressure {
		end = phase("primary_key_drains")
		keyed, err := w.drainFor(ctx, scanKeyed, readsession.Options{Where: scanOrdersWhere}, part(1), m)
		end()
		if err != nil {
			return err
		}
		m.set("pk_scan_rows_per_s", rowsPerSecond(keyed))
		m.samples["pk_scan_rows_per_s"] = len(keyed)
	}

	// Statements run on an engine over the service's own scan client, so
	// they see the cache regime the drains saw.
	end = phase("statements")
	err = w.statementsFor(ctx, part(2), m)
	end()
	if err != nil {
		return err
	}
	after := e.snap(w.writer, w.reader, w.sessions)
	readLayers(m, before, after)
	if reads := after.colossus.ReadOps - before.colossus.ReadOps; !w.pressure {
		m.counts.check(reads == 0, "warm scan window read Colossus %d times; the working set was to fit the cache", reads)
	}
	return nil
}

// warm drains the primary-key table and runs every statement once.
func (w *scanDriver) warm(ctx context.Context) error {
	if !w.pressure {
		if _, err := drain(ctx, nil, readsession.Dial(w.consumer, w.readAddr), scanKeyed, readsession.Options{Where: scanOrdersWhere}, nil); err != nil {
			return err
		}
	}
	for _, si := range w.statements() {
		if _, err := w.engine.Query(ctx, scanStatements[si].text); err != nil {
			return fmt.Errorf("%s: %w", scanStatements[si].name, err)
		}
	}
	return nil
}

func sumElapsedMS(runs []drainRun) float64 {
	var ms float64
	for _, r := range runs {
		ms += float64(r.elapsed) / 1e6
	}
	return ms
}

// statementsFor has every reader loop over the statement rotation until
// d has passed, checking each result against its reference.
func (w *scanDriver) statementsFor(ctx context.Context, d time.Duration, m *measurement) error {
	tr := w.env.tr
	rotation := w.statements()
	type result struct {
		samples map[string][]sample
		stats   query.ExecStats
		results int64
		err     error
	}
	parts := make([]result, generators)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res := result{samples: make(map[string][]sample)}
			defer func() { parts[g] = res }()
			for i := g; time.Since(start) < d; i++ {
				st := scanStatements[rotation[i%len(rotation)]]
				opCtx, end := ctx, func() {}
				if tr != nil {
					opCtx, end = tr.startOp(ctx, "stmt:"+st.name, g)
				}
				t0 := time.Now()
				out, err := w.engine.Query(opCtx, st.text)
				took := time.Since(t0)
				end()
				if err != nil {
					res.err = fmt.Errorf("%s: %w", st.name, err)
					return
				}
				res.samples[st.name] = append(res.samples[st.name], sample{at: t0.Sub(start).Seconds(), ms: float64(took) / 1e6})
				got := resultDigest(out)
				m.counts.check(got == w.refStatements[st.name], "%s returned %d rows digest %x, reference %d rows digest %x",
					st.name, got.Rows, got.Sum, w.refStatements[st.name].Rows, w.refStatements[st.name].Sum)
				res.stats.RowsScanned += out.Stats.RowsScanned
				res.stats.RowsCodeSkipped += out.Stats.RowsCodeSkipped
				res.stats.RowsDecoded += out.Stats.RowsDecoded
				res.results += int64(out.NumRows())
				if st.name == "q_filter" {
					res.stats.AssignmentsTotal += out.Stats.AssignmentsTotal
					res.stats.AssignmentsPruned += out.Stats.AssignmentsPruned
				}
			}
		}(g)
	}
	wg.Wait()
	var all []sample
	byName := make(map[string][]float64)
	var stats query.ExecStats
	var results int64
	for _, p := range parts {
		if p.err != nil {
			return p.err
		}
		for name, s := range p.samples {
			all = append(all, s...)
			byName[name] = append(byName[name], millis(s)...)
		}
		stats.RowsScanned += p.stats.RowsScanned
		stats.RowsCodeSkipped += p.stats.RowsCodeSkipped
		stats.RowsDecoded += p.stats.RowsDecoded
		stats.AssignmentsTotal += p.stats.AssignmentsTotal
		stats.AssignmentsPruned += p.stats.AssignmentsPruned
		results += p.results
	}
	for name, ms := range byName {
		m.p50("query.stmt_ms_p50."+name, ms)
	}
	m.timing("query_p50_ms", "query_p95_ms", 0.95, all)
	m.set("query.rows_scanned_per_result_row", ratio(float64(stats.RowsScanned), float64(results)))
	m.set("query.code_skipped_ratio", ratio(float64(stats.RowsCodeSkipped), float64(stats.RowsScanned)))
	m.set("query.decoded_ratio", ratio(float64(stats.RowsDecoded), float64(stats.RowsScanned)))
	m.set("bigmeta.pruned_ratio", ratio(float64(stats.AssignmentsPruned), float64(stats.AssignmentsTotal)))
	return nil
}

func (w *scanDriver) verify(ctx context.Context, m *measurement) error {
	conn := readsession.Dial(w.consumer, w.readAddr)
	// The keyless table three ways: session scan, SQL, and the reference.
	session := &batchDigester{cols: salesFlatColumns}
	if _, err := drain(ctx, nil, conn, scanKeyless, salesScan, session.visit); err != nil {
		return err
	}
	got := session.total()
	m.counts.check(got == w.refFiltered, "session scan of %s: %d rows digest %x, reference %d rows digest %x",
		scanKeyless, got.Rows, got.Sum, w.refFiltered.Rows, w.refFiltered.Sum)
	text := "SELECT orderTimestamp, salesOrderKey, customerKey, totalSale, currencyKey FROM " + scanKeyless + " WHERE " + salesWhere
	res, err := w.engine.Query(ctx, text)
	if err != nil {
		return err
	}
	got = resultDigest(res)
	m.counts.check(got == w.refFiltered, "SQL scan of %s: %d rows digest %x, reference %d rows digest %x",
		scanKeyless, got.Rows, got.Sum, w.refFiltered.Rows, w.refFiltered.Sum)

	if !w.pressure {
		// The primary-key table: every change row through a session,
		// resolved here, against the model; and the engine's own
		// resolution through SQL.
		var mu sync.Mutex
		var stamped []rowenc.Stamped
		_, err := drain(ctx, nil, conn, scanKeyed, readsession.Options{}, func(_ int, b *readsession.Batch) {
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
		m.counts.check(resolved == want, "resolved session scan of %s: %d rows digest %x, model %d rows digest %x",
			scanKeyed, resolved.Rows, resolved.Sum, want.Rows, want.Sum)
		res, err := w.engine.Query(ctx, "SELECT orderId, customerKey, qty, amount, status FROM "+scanKeyed)
		if err != nil {
			return err
		}
		got = resultDigest(res)
		m.counts.check(got == want, "SQL scan of %s: %d rows digest %x, model %d rows digest %x",
			scanKeyed, got.Rows, got.Sum, want.Rows, want.Sum)
	}
	return storedRatio(ctx, w.env, m, w.user)
}

func (w *scanDriver) layers(m *measurement, all *spanIndex) {
	traceLayers(m, all, all.since(w.window), 0)
	statementLayers(m, all)
	if w.pressure {
		// Where this workload reads Colossus: the cold passes.
		readTraceLayers(m, all.between(w.window, w.warmFrom), scanColdPasses)
	} else {
		readTraceLayers(m, all.since(w.warmFrom), w.passes)
	}
	// Pruning on its own: the q_filter predicates against the table's plan.
	plan, err := w.reader.Plan(context.Background(), scanKeyless, 0)
	if err != nil {
		m.counts.fail("planning %s for the prune kernel: %v", scanKeyless, err)
		return
	}
	stmt, err := sql.Parse(scanStatements[0].text)
	if err == nil {
		err = sql.Resolve(stmt, plan.Schema)
	}
	if err != nil {
		m.counts.fail("resolving q_filter for the prune kernel: %v", err)
		return
	}
	preds := sql.ExtractPredicates(stmt.(*sql.SelectStmt).Where)
	t0 := time.Now()
	for i := 0; i < kernelCalls; i++ {
		kept, _ := query.PruneAssignments(w.env.index, scanKeyless, plan.Schema, preds, plan.Assignments)
		sink += len(kept)
	}
	m.set("bigmeta.prune_us_per_call", float64(time.Since(t0))/1e3/kernelCalls)
}

func (w *scanDriver) kernelInput() kernelInput {
	return kernelInput{schema: workload.SalesSchema(), batches: w.converted, filterColumn: "customerKey", filterValue: "customer-00042"}
}

func (w *scanDriver) close() {
	if w.env != nil {
		w.env.close()
		w.env = nil
	}
	for _, d := range w.dirs {
		os.RemoveAll(d)
	}
	w.dirs = nil
}
