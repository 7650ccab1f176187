package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/rowenc"
	"vortex/internal/snappy"
	"vortex/internal/workload"
)

// CompressionRow is one compression measurement.
type CompressionRow struct {
	Workload   string
	InputBytes int
	Snappy     int
	Sealed     int // full envelope (compress+encrypt+CRC)
	Ratio      float64
	EncodeMBps float64
}

// Compression reproduces the §5.4.5 claims: Snappy compresses typical
// structured rows ~4:1 and string-repetitive rows up to 10:1, with
// negligible CPU cost.
func Compression(rowsPerCase int) ([]CompressionRow, error) {
	cases := []struct {
		name       string
		repetition int
	}{
		{"typical log rows (large value pools)", 50000},
		{"moderate string repetition", 500},
		{"highly repetitive strings", 4},
	}
	kr := blockenc.NewKeyring()
	sealer := blockenc.NewSealer(kr)
	var out []CompressionRow
	for i, cse := range cases {
		gen := workload.NewGen(int64(i), cse.repetition)
		rows := gen.LogRows(rowsPerCase)
		payload := rowenc.EncodeRows(rows)
		start := time.Now()
		comp := snappy.Encode(payload)
		encodeTime := time.Since(start)
		sealed, err := sealer.Seal(payload, blockenc.Checksum(payload), blockenc.SystemKey)
		if err != nil {
			return nil, err
		}
		out = append(out, CompressionRow{
			Workload:   cse.name,
			InputBytes: len(payload),
			Snappy:     len(comp),
			Sealed:     len(sealed),
			Ratio:      float64(len(payload)) / float64(len(comp)),
			EncodeMBps: float64(len(payload)) / encodeTime.Seconds() / (1 << 20),
		})
	}
	return out, nil
}

// PrintCompression renders the compression experiment.
func PrintCompression(w io.Writer, rows []CompressionRow) {
	fmt.Fprintln(w, "§5.4.5 — Snappy compression of WOS blocks")
	fmt.Fprintln(w, "(paper: typical 4:1, up to 10:1 when string values repeat; negligible CPU)")
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Workload,
			fmt.Sprintf("%dKB", r.InputBytes/1024),
			fmt.Sprintf("%dKB", r.Snappy/1024),
			fmt.Sprintf("%.1f:1", r.Ratio),
			fmt.Sprintf("%.0fMB/s", r.EncodeMBps),
		})
	}
	fmt.Fprint(w, metrics.FormatTable([]string{"workload", "input", "snappy", "ratio", "encode"}, table))
	fmt.Fprintln(w)
}

// ConnRow is one unary-vs-bidi measurement.
type ConnRow struct {
	Mode             string
	Streams          int
	Appends          int64
	ConnectionSetups int64
	PooledReuses     int64
	Elapsed          time.Duration
}

// UnaryVsBidi reproduces the §5.4.2 trade: a Zipf-skewed fleet of
// streams (10% hold 90% of the data) written once with short-lived
// pooled unary connections, once with persistent bi-di connections.
// Unary avoids per-stream connection state for the cold long tail; bi-di
// amortizes setup for the hot streams.
func UnaryVsBidi(ctx context.Context, streams, totalAppends int) ([]ConnRow, error) {
	sizes := workload.ZipfStreamSizes(42, streams, totalAppends)
	var out []ConnRow
	for _, mode := range []string{"unary", "bidi", "adaptive"} {
		r := core.NewRegion(core.DefaultConfig())
		opts := client.DefaultOptions()
		switch mode {
		case "unary":
			opts.ForceUnary = true
		case "bidi":
			opts.ForceBidi = true
		}
		c := r.NewClient(opts)
		table := meta.TableID("bench.conn")
		if err := c.CreateTable(ctx, table, workload.EventsSchema()); err != nil {
			return nil, err
		}
		gen := workload.NewGen(1, 100)
		start := time.Now()
		var appends int64
		for _, n := range sizes {
			if n == 0 {
				continue
			}
			s, err := c.CreateStream(ctx, table, meta.Unbuffered)
			if err != nil {
				return nil, err
			}
			for k := 0; k < n; k++ {
				rows := gen.EventRows(time.Now(), 4, time.Microsecond)
				if _, err := s.Append(ctx, rows); err != nil {
					return nil, err
				}
				appends++
			}
		}
		st := r.Net.Stats()
		out = append(out, ConnRow{
			Mode:             mode,
			Streams:          streams,
			Appends:          appends,
			ConnectionSetups: st.ConnectionSetups,
			PooledReuses:     st.PooledReuses,
			Elapsed:          time.Since(start),
		})
	}
	return out, nil
}

// PrintUnaryVsBidi renders the connection-type experiment.
func PrintUnaryVsBidi(w io.Writer, rows []ConnRow) {
	fmt.Fprintln(w, "§5.4.2 — Unary vs bi-directional connections over a Zipf stream fleet")
	fmt.Fprintln(w, "(paper: 10% of streams hold 90% of data; unary suits sparse writers, bi-di suits hot streams)")
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Streams),
			fmt.Sprintf("%d", r.Appends),
			fmt.Sprintf("%d", r.ConnectionSetups),
			fmt.Sprintf("%d", r.PooledReuses),
			r.Elapsed.Round(time.Millisecond).String(),
		})
	}
	fmt.Fprint(w, metrics.FormatTable([]string{"mode", "streams", "appends", "conn setups", "pool reuses", "elapsed"}, table))
	fmt.Fprintln(w)
}

// ScanRow is one WOS-vs-ROS scan measurement.
type ScanRow struct {
	Layout    string
	Rows      int64
	Elapsed   time.Duration
	BytesRead int64
}

// WOSvsROS reproduces the Figure 5 behaviour: the same data scanned from
// the write-optimized log versus after conversion to read-optimized
// columnar storage, including a filtered aggregate that benefits from
// column pruning and clustering.
func WOSvsROS(ctx context.Context, nRows int) ([]ScanRow, *query.Result, error) {
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	eng := query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{})
	table := meta.TableID("bench.scan")
	if err := c.CreateTable(ctx, table, workload.SalesSchema()); err != nil {
		return nil, nil, err
	}
	gen := workload.NewGen(3, 300)
	s, err := c.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		return nil, nil, err
	}
	const batch = 200
	for lo := 0; lo < nRows; lo += batch {
		n := batch
		if lo+n > nRows {
			n = nRows - lo
		}
		if _, err := s.Append(ctx, gen.SalesRows(lo%3, n)); err != nil {
			return nil, nil, err
		}
	}
	if _, err := s.Finalize(ctx); err != nil {
		return nil, nil, err
	}
	r.HeartbeatAll(ctx, false)

	const q = "SELECT customerKey, COUNT(*), SUM(totalSale) FROM bench.scan GROUP BY customerKey ORDER BY customerKey LIMIT 5"
	measure := func(layout string) (ScanRow, *query.Result, error) {
		before := r.Colossus.Stats()
		start := time.Now()
		res, err := eng.Query(ctx, q)
		if err != nil {
			return ScanRow{}, nil, err
		}
		after := r.Colossus.Stats()
		return ScanRow{
			Layout:    layout,
			Rows:      res.Stats.RowsScanned,
			Elapsed:   time.Since(start),
			BytesRead: after.BytesRead - before.BytesRead,
		}, res, nil
	}
	wos, _, err := measure("WOS (log)")
	if err != nil {
		return nil, nil, err
	}
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, table); err != nil {
		return nil, nil, err
	}
	ros, res, err := measure("ROS (columnar)")
	if err != nil {
		return nil, nil, err
	}
	return []ScanRow{wos, ros}, res, nil
}

// PrintScan renders the WOS-vs-ROS experiment.
func PrintScan(w io.Writer, rows []ScanRow) {
	fmt.Fprintln(w, "Figure 5 (behavioural) — scanning WOS vs ROS")
	fmt.Fprintln(w, "(queries read the union; conversion moves data into the faster columnar layout)")
	table := make([][]string, 0, len(rows))
	for _, r := range rows {
		table = append(table, []string{
			r.Layout,
			fmt.Sprintf("%d", r.Rows),
			r.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%dKB", r.BytesRead/1024),
		})
	}
	fmt.Fprint(w, metrics.FormatTable([]string{"layout", "rows scanned", "query time", "bytes read"}, table))
	fmt.Fprintln(w)
}

// ReclusterStep is one step of the reclustering experiment.
type ReclusterStep struct {
	Step          string
	Ratio         float64
	BaselineFrags int
	DeltaFrags    int
	PrunedPct     float64 // fraction of assignments pruned for a point query
}

// Recluster reproduces the Figure 6 behaviour: deltas accumulate and
// degrade the clustering ratio; automatic reclustering restores it, and
// partition elimination effectiveness follows.
func Recluster(ctx context.Context, rounds, rowsPerRound int) ([]ReclusterStep, error) {
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	eng := query.New(c, r.BigMeta, r.Net, r.Router(), query.Config{})
	ocfg := optimizer.DefaultConfig()
	ocfg.TargetROSRows = int64(rowsPerRound / 4)
	opt := optimizer.New(ocfg, c, r.Net, r.Router(), r.Colossus, r.Clock)
	table := meta.TableID("bench.rc")
	if err := c.CreateTable(ctx, table, workload.SalesSchema()); err != nil {
		return nil, err
	}
	pruneProbe := func() (float64, error) {
		res, err := eng.Query(ctx, "SELECT COUNT(*) FROM bench.rc WHERE customerKey = 'customer-00001-us-east'")
		if err != nil {
			return 0, err
		}
		if res.Stats.AssignmentsTotal == 0 {
			return 0, nil
		}
		return float64(res.Stats.AssignmentsPruned) / float64(res.Stats.AssignmentsTotal), nil
	}
	var steps []ReclusterStep
	record := func(step string) error {
		st, err := opt.ClusteringRatio(ctx, table)
		if err != nil {
			return err
		}
		p, err := pruneProbe()
		if err != nil {
			return err
		}
		steps = append(steps, ReclusterStep{
			Step: step, Ratio: st.Ratio,
			BaselineFrags: st.BaselineFragments, DeltaFrags: st.DeltaFragments,
			PrunedPct: p * 100,
		})
		return nil
	}
	gen := workload.NewGen(6, 400)
	for round := 0; round < rounds; round++ {
		s, err := c.CreateStream(ctx, table, meta.Unbuffered)
		if err != nil {
			return nil, err
		}
		rows := gen.SalesRows(0, rowsPerRound)
		for lo := 0; lo < len(rows); lo += 200 {
			hi := lo + 200
			if hi > len(rows) {
				hi = len(rows)
			}
			if _, err := s.Append(ctx, rows[lo:hi]); err != nil {
				return nil, err
			}
		}
		if _, err := s.Finalize(ctx); err != nil {
			return nil, err
		}
		r.HeartbeatAll(ctx, false)
		if _, err := opt.ConvertTable(ctx, table); err != nil {
			return nil, err
		}
		if err := record(fmt.Sprintf("after delta %d", round+1)); err != nil {
			return nil, err
		}
	}
	if _, err := opt.Recluster(ctx, table, true); err != nil {
		return nil, err
	}
	if err := record("after recluster"); err != nil {
		return nil, err
	}
	return steps, nil
}

// PrintRecluster renders the reclustering experiment.
func PrintRecluster(w io.Writer, steps []ReclusterStep) {
	fmt.Fprintln(w, "Figure 6 (behavioural) — automatic reclustering")
	fmt.Fprintln(w, "(deltas overlap the baseline and lower the clustering ratio; reclustering restores it)")
	table := make([][]string, 0, len(steps))
	for _, s := range steps {
		table = append(table, []string{
			s.Step,
			fmt.Sprintf("%.2f", s.Ratio),
			fmt.Sprintf("%d", s.BaselineFrags),
			fmt.Sprintf("%d", s.DeltaFrags),
			fmt.Sprintf("%.0f%%", s.PrunedPct),
		})
	}
	fmt.Fprint(w, metrics.FormatTable([]string{"step", "clustering ratio", "baseline frags", "delta frags", "pruned (point query)"}, table))
	fmt.Fprintln(w)
}
