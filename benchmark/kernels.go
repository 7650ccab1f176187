package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/disktier"
	"vortex/internal/query"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/snappy"
	"vortex/internal/sql"
	"vortex/internal/wire"
)

// The kernels time each leaf package's public functions in isolation,
// single-threaded, a fixed number of calls, on rows of the workload
// being run — so a change to one layer can be shown to move that
// layer's number, on the inputs the end-to-end metric saw.

// kernelInput is the sample a workload hands the kernels.
type kernelInput struct {
	schema  *schema.Schema
	batches []batch
	// filterColumn = filterValue is the predicate the filter kernels
	// evaluate; the column is a flat, low-cardinality one.
	filterColumn string
	filterValue  string
}

const (
	kernelBatches = 64   // appends encoded, sealed, sent
	kernelRows    = 8192 // rows per columnar kernel (two default ROS files)
	kernelCalls   = 200  // calls per latency kernel
)

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink int

func perSecond(n int, elapsed time.Duration) float64 {
	return ratio(float64(n), elapsed.Seconds())
}

func mbPerSecond(bytes int, elapsed time.Duration) float64 {
	return ratio(float64(bytes)/1e6, elapsed.Seconds())
}

// usP50 times each of n calls of f and returns the median microseconds.
func usP50(n int, f func()) float64 {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		f()
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us)
}

// runKernels fills m with every isolated layer timing. A kernel that
// cannot run counts as a failed operation; it never stops the others.
func runKernels(m *measurement, in kernelInput) {
	batches := in.batches
	if len(batches) > kernelBatches {
		batches = batches[:kernelBatches]
	}
	var rows []schema.Row
	for _, b := range in.batches {
		rows = append(rows, b.rows...)
		if len(rows) >= kernelRows {
			rows = rows[:kernelRows]
			break
		}
	}
	steps := []struct {
		name string
		run  func() error
	}{
		{"encode", func() error { return kernelEncode(m, batches) }},
		{"rpc", func() error { return kernelRPC(m, batches, rows, in.schema) }},
		{"colossus", func() error { return kernelColossus(m, batches) }},
		{"columnar", func() error { return kernelColumnar(m, in, rows) }},
		{"sql", func() error { return kernelSQL(m) }},
	}
	for _, s := range steps {
		if err := s.run(); err != nil {
			m.counts.fail("kernel %s: %v", s.name, err)
		} else {
			m.counts.add(1, 0)
		}
	}
}

// kernelEncode times the append path's byte work: row encoding, the
// compression inside the block envelope, and sealing and opening it.
func kernelEncode(m *measurement, batches []batch) error {
	var nRows, raw int
	payloads := make([][]byte, len(batches))
	t0 := time.Now()
	for i, b := range batches {
		payloads[i] = rowenc.EncodeRows(b.rows)
		nRows += len(b.rows)
		raw += len(payloads[i])
	}
	m.set("rowenc.encode_rows_per_s", perSecond(nRows, time.Since(t0)))

	t0 = time.Now()
	for _, p := range payloads {
		out, err := rowenc.DecodeRows(p)
		if err != nil {
			return err
		}
		sink += len(out)
	}
	m.set("rowenc.decode_rows_per_s", perSecond(nRows, time.Since(t0)))

	t0 = time.Now()
	for _, p := range payloads {
		sink += len(snappy.Encode(p))
	}
	m.set("snappy.encode_mb_per_s", mbPerSecond(raw, time.Since(t0)))

	sealer := blockenc.NewSealer(blockenc.NewKeyring())
	sealed := make([][]byte, len(payloads))
	var stored int
	t0 = time.Now()
	for i, p := range payloads {
		s, err := sealer.Seal(p, blockenc.Checksum(p), blockenc.SystemKey)
		if err != nil {
			return err
		}
		sealed[i] = s
		stored += len(s)
	}
	m.set("blockenc.seal_mb_per_s", mbPerSecond(raw, time.Since(t0)))
	m.set("blockenc.sealed_bytes_per_raw_byte", ratio(float64(stored), float64(raw)))

	t0 = time.Now()
	for _, s := range sealed {
		p, err := sealer.Open(s)
		if err != nil {
			return err
		}
		sink += len(p)
	}
	m.set("blockenc.open_mb_per_s", mbPerSecond(raw, time.Since(t0)))
	return nil
}

// kernelRPC times an echo handler on both transports with payloads the
// size the workload sends: an AppendRequest per append, and a
// ReadRowsResponse carrying a record batch of the workload's rows.
func kernelRPC(m *measurement, batches []batch, rows []schema.Row, sc *schema.Schema) error {
	ctx := context.Background()
	payload := rowenc.EncodeRows(batches[0].rows)
	req := &wire.AppendRequest{Streamlet: "bench", Payload: payload, CRC: blockenc.Checksum(payload), ExpectedStreamOffset: -1}
	frame := wire.EncodeRecordBatch(recordBatchOf(sc, rows[:min(len(rows), 1024)]))
	resp := &wire.ReadRowsResponse{RowCount: 1024, Batch: frame}

	srv := rpc.NewServer()
	srv.RegisterUnary("Echo", func(_ context.Context, r any) (any, error) { return r, nil })
	srv.RegisterStream("EchoStream", func(_ context.Context, st rpc.ServerStream) error {
		for {
			msg, err := st.Recv()
			if err != nil {
				return nil
			}
			if err := st.Send(msg); err != nil {
				return err
			}
		}
	})

	mem := rpc.NewNetwork(nil)
	mem.Register("echo", srv)
	var callErr error
	call := func(net rpc.Transport, msg any) func() {
		return func() {
			if _, err := net.Unary(ctx, "echo", "Echo", msg); err != nil {
				callErr = err
			}
		}
	}
	m.set("rpc.mem_unary_us_p50", usP50(kernelCalls, call(mem, req)))

	server := rpc.NewTCPTransport()
	defer server.Close()
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	server.Register("echo", srv)
	cli := rpc.NewTCPTransport()
	defer cli.Close()
	cli.AddRoute("echo", addr)
	call(cli, req)() // dial outside the timing
	m.set("rpc.tcp_unary_us_p50", usP50(kernelCalls, call(cli, req)))

	t0 := time.Now()
	for i := 0; i < kernelCalls; i++ {
		call(cli, resp)()
	}
	// The batch crosses the socket twice per call.
	m.set("rpc.tcp_unary_mb_per_s", mbPerSecond(2*kernelCalls*len(frame), time.Since(t0)))
	if callErr != nil {
		return callErr
	}

	st, err := cli.OpenStream(ctx, "echo", "EchoStream", 1<<20)
	if err != nil {
		return err
	}
	defer st.Close()
	t0 = time.Now()
	for i := 0; i < kernelCalls; i++ {
		if err := st.Send(req); err != nil {
			return err
		}
		if _, err := st.Recv(); err != nil {
			return err
		}
	}
	m.set("rpc.tcp_stream_msgs_per_s", perSecond(kernelCalls, time.Since(t0)))
	return nil
}

// recordBatchOf lays the flat top-level columns of rows out as a record
// batch.
func recordBatchOf(sc *schema.Schema, rows []schema.Row) *wire.RecordBatch {
	rb := &wire.RecordBatch{NumRows: len(rows)}
	for i, f := range sc.Fields {
		if f.Kind == schema.KindStruct || f.Mode == schema.Repeated {
			continue
		}
		vals := make([]schema.Value, len(rows))
		for r := range rows {
			vals[r] = rows[r].Values[i]
		}
		rb.Cols = append(rb.Cols, wire.BatchColumn{Name: f.Name, Values: vals})
	}
	return rb
}

// kernelColossus times one cluster's append and whole-file read.
func kernelColossus(m *measurement, batches []batch) error {
	cl := colossus.NewRegion("alpha").Cluster("alpha")
	if err := cl.Create("bench/file"); err != nil {
		return err
	}
	payloads := make([][]byte, len(batches))
	for i, b := range batches {
		payloads[i] = rowenc.EncodeRows(b.rows)
	}
	var appendErr error
	i := 0
	m.set("colossus.append_us_p50", usP50(kernelCalls, func() {
		p := payloads[i%len(payloads)]
		i++
		if _, err := cl.Append("bench/file", p, blockenc.Checksum(p)); err != nil {
			appendErr = err
		}
	}))
	if appendErr != nil {
		return appendErr
	}
	var read int
	t0 := time.Now()
	for j := 0; j < 20; j++ {
		data, err := cl.Read("bench/file", 0, -1)
		if err != nil {
			return err
		}
		read += len(data)
	}
	m.set("colossus.read_mb_per_s", mbPerSecond(read, time.Since(t0)))
	return nil
}

// scratchDir makes a directory under .bench_build in the working
// directory: the benchmark writes nowhere outside its checkout.
func scratchDir(pattern string) (string, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, pattern)
}

// kernelColumnar times the read path's columnar work on the workload's
// rows: writing and opening a ROS file, the disk tier, record-batch
// encode and decode, and the code-space filter on each vector encoding.
func kernelColumnar(m *measurement, in kernelInput, rows []schema.Row) error {
	sc := in.schema
	t0 := time.Now()
	w := ros.NewWriter(sc)
	w.AllowMixedPartitions()
	for i, r := range rows {
		if err := w.Add(r, int64(i+1)); err != nil {
			return err
		}
	}
	file, err := w.Finish()
	if err != nil {
		return err
	}
	m.set("ros.write_rows_per_s", perSecond(len(rows), time.Since(t0)))
	m.set("ros.bytes_per_row", ratio(float64(len(file)), float64(len(rows))))

	flat := make(map[string]bool)
	for _, f := range sc.Fields {
		if f.Kind != schema.KindStruct && f.Mode != schema.Repeated {
			flat[f.Name] = true
		}
	}
	var vecs []wire.Vector
	const opens = 8
	t0 = time.Now()
	for i := 0; i < opens; i++ {
		rd, err := ros.Open(file)
		if err != nil {
			return err
		}
		v, _, ok, err := rd.Vectors(sc, flat)
		if err != nil || !ok {
			return fmt.Errorf("ros vectors: ok=%v err=%v", ok, err)
		}
		vecs = v
	}
	m.set("ros.open_decode_rows_per_s", perSecond(opens*len(rows), time.Since(t0)))

	dir, err := scratchDir("disktier-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	tier, err := disktier.Open(dir, int64(64*len(file)))
	if err != nil {
		return err
	}
	const entries = 16
	t0 = time.Now()
	for i := 0; i < entries; i++ {
		tier.Put(fmt.Sprintf("ros/bench/%d", i), file)
	}
	m.set("disktier.put_mb_per_s", mbPerSecond(entries*len(file), time.Since(t0)))
	t0 = time.Now()
	for i := 0; i < entries; i++ {
		data, ok := tier.Get(fmt.Sprintf("ros/bench/%d", i))
		if !ok {
			return fmt.Errorf("disk tier lost entry %d", i)
		}
		sink += len(data)
	}
	m.set("disktier.get_mb_per_s", mbPerSecond(entries*len(file), time.Since(t0)))

	const frames = 8
	var frame []byte
	t0 = time.Now()
	for i := 0; i < frames; i++ {
		frame = wire.EncodeVectors(vecs, nil)
	}
	m.set("wire.batch_encode_rows_per_s", perSecond(frames*len(rows), time.Since(t0)))
	t0 = time.Now()
	for i := 0; i < frames; i++ {
		rb, _, err := wire.DecodeRecordBatch(frame)
		if err != nil {
			return err
		}
		sink += rb.NumRows
	}
	m.set("wire.batch_decode_rows_per_s", perSecond(frames*len(rows), time.Since(t0)))

	// The same column in each encoding: as written, as dictionary and
	// codes, and as runs over the sorted values.
	col := sc.FieldIndex(in.filterColumn)
	if col < 0 {
		return fmt.Errorf("no column %q to filter", in.filterColumn)
	}
	vals := make([]schema.Value, len(rows))
	for i, r := range rows {
		vals[i] = r.Values[col]
	}
	codeOf := make(map[string]uint32)
	var dict []schema.Value
	codes := make([]uint32, len(vals))
	for i, v := range vals {
		c, ok := codeOf[v.AsString()]
		if !ok {
			c = uint32(len(dict))
			codeOf[v.AsString()] = c
			dict = append(dict, v)
		}
		codes[i] = c
	}
	sorted := append([]schema.Value(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
	var runs []wire.Run
	for _, v := range sorted {
		if n := len(runs); n > 0 && runs[n-1].Value.Equal(v) {
			runs[n-1].Len++
		} else {
			runs = append(runs, wire.Run{Len: 1, Value: v})
		}
	}
	want := schema.String(in.filterValue)
	keep := func(v schema.Value) (bool, error) { return v.Equal(want), nil }
	for _, enc := range []struct {
		name string
		vec  wire.Vector
	}{
		{"plain", wire.PlainVector(in.filterColumn, vals)},
		{"dict", wire.DictVector(in.filterColumn, dict, codes)},
		{"rle", wire.RLEVector(in.filterColumn, runs)},
	} {
		const filters = 8
		t0 = time.Now()
		for i := 0; i < filters; i++ {
			sel, _, err := enc.vec.Filter(nil, keep)
			if err != nil {
				return err
			}
			sink += len(sel)
		}
		m.set("wire.filter_rows_per_s."+enc.name, perSecond(filters*len(rows), time.Since(t0)))
	}
	return nil
}

// The statements of the scan rotation, by name. q_filter is pruned to
// one day partition; q_pk reads the primary-key table and is resolved.
const (
	scanKeyless = "bench.sales"
	scanKeyed   = "bench.orders"
	scanDim     = "bench.customers"
)

var scanStatements = []struct{ name, text string }{
	{"q_filter", "SELECT COUNT(*), SUM(totalSale) FROM " + scanKeyless +
		" WHERE orderTimestamp >= TIMESTAMP '2024-03-02 00:00:00' AND orderTimestamp < TIMESTAMP '2024-03-03 00:00:00' AND currencyKey = 840"},
	{"q_group", "SELECT customerKey, COUNT(*), SUM(totalSale) FROM " + scanKeyless + " GROUP BY customerKey"},
	{"q_join", "SELECT c.country, COUNT(*), SUM(o.qty) FROM " + scanKeyed + " AS o JOIN " + scanDim +
		" AS c ON o.customerKey = c.customerKey GROUP BY c.country"},
	{"q_pk", "SELECT status, COUNT(*), SUM(qty) FROM " + scanKeyed + " GROUP BY status"},
}

// kernelSQL times the parser on the scan statements, and the shared
// hash-join and retractable-aggregate kernels on seeded orders and
// customers.
func kernelSQL(m *measurement) error {
	i := 0
	var parseErr error
	m.set("sql.parse_us_p50", usP50(kernelCalls, func() {
		if _, err := sql.Parse(scanStatements[i%len(scanStatements)].text); err != nil {
			parseErr = err
		}
		i++
	}))
	if parseErr != nil {
		return parseErr
	}

	model := newOrderModel(1)
	const nOrders = 20000
	orders := make([]schema.Row, nOrders)
	for i := range orders {
		orders[i] = model.insert()
	}
	customers := customerRows()
	stmt, err := sql.Parse(scanStatements[2].text)
	if err != nil {
		return err
	}
	sel := stmt.(*sql.SelectStmt)
	if err := sql.ResolveJoin(sel, ordersSchema(), customersSchema()); err != nil {
		return err
	}
	t0 := time.Now()
	joined := query.HashJoinRows(orders, customers, sel.Join, len(ordersSchema().Fields))
	m.set("query.hash_join_rows_per_s", perSecond(len(orders), time.Since(t0)))
	if len(joined) != nOrders {
		return fmt.Errorf("hash join returned %d rows for %d orders", len(joined), nOrders)
	}

	plan := query.AggPlanOf(sel)
	fns := make([]sql.AggFunc, len(plan))
	for i, it := range plan {
		fns[i] = it.Fn
	}
	groups := make(map[string]*query.DeltaGroup)
	t0 = time.Now()
	for _, row := range joined {
		key, keys := query.GroupKeyOf(sel, row)
		g := groups[key]
		if g == nil {
			g = query.NewDeltaGroup(keys, fns)
			groups[key] = g
		}
		if err := g.ApplyDelta(plan, row, 1); err != nil {
			return err
		}
	}
	m.set("query.delta_group_events_per_s", perSecond(len(joined), time.Since(t0)))
	if len(groups) != cdcCountries {
		return fmt.Errorf("delta groups: %d, want %d", len(groups), cdcCountries)
	}
	return nil
}
