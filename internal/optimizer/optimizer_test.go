package optimizer_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/core"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/wire"
	"vortex/internal/workload"
)

func ordersSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "orderKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "customerKey", Kind: schema.KindString, Mode: schema.Required},
			{Name: "amount", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PrimaryKey:     []string{"orderKey"},
		PartitionField: "ts",
		ClusterBy:      []string{"customerKey"},
	}
}

func orderRow(day, i int, customer string) schema.Row {
	return schema.NewRow(
		schema.Timestamp(time.Date(2024, 6, 1+day, 8, 0, i, 0, time.UTC)),
		schema.String(fmt.Sprintf("O-%d-%d", day, i)),
		schema.String(customer),
		schema.Int64(int64(i)),
	)
}

type env struct {
	r   *core.Region
	c   *client.Client
	opt *optimizer.Optimizer
	ctx context.Context
}

func newEnv(t testing.TB, fragBytes int64) *env {
	t.Helper()
	cfg := core.DefaultConfig()
	if fragBytes > 0 {
		cfg.MaxFragmentBytes = fragBytes
	}
	return newEnvIn(core.NewRegion(cfg))
}

func newEnvIn(r *core.Region) *env {
	c := r.NewClient(client.DefaultOptions())
	ocfg := optimizer.DefaultConfig()
	ocfg.TargetROSRows = 100
	opt := optimizer.New(ocfg, c, r.Net, r.Router(), r.Colossus, r.Clock)
	return &env{r: r, c: c, opt: opt, ctx: context.Background()}
}

func (e *env) mustRead(t testing.TB, table meta.TableID) []rowenc.Stamped {
	t.Helper()
	rows, _, err := e.c.ReadAll(e.ctx, table, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// ingestAndSeal writes rows on one stream, finalizes it and heartbeats so
// the fragments become conversion candidates.
func (e *env) ingestAndSeal(t testing.TB, table meta.TableID, rows []schema.Row) {
	t.Helper()
	s, err := e.c.CreateStream(e.ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := s.Append(e.ctx, []schema.Row{r}, client.AtOffset(-1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Finalize(e.ctx); err != nil {
		t.Fatal(err)
	}
	e.r.HeartbeatAll(e.ctx, false)
}

func countFormats(rows *client.ScanPlan) (wos, ros int) {
	for _, a := range rows.Assignments {
		if a.Frag.Format == meta.ROS {
			ros++
		} else {
			wos++
		}
	}
	return
}

func TestConvertTableEndToEnd(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for day := 0; day < 2; day++ {
		for i := 0; i < 20; i++ {
			rows = append(rows, orderRow(day, i, fmt.Sprintf("C-%02d", i%7)))
		}
	}
	e.ingestAndSeal(t, "d.orders", rows)
	before := e.mustRead(t, "d.orders")
	preTS := e.r.Clock.Now().Latest
	time.Sleep(10 * time.Millisecond)

	res, err := e.opt.ConvertTable(e.ctx, "d.orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsConverted == 0 || res.RowsConverted != 40 {
		t.Fatalf("conversion result = %+v", res)
	}
	// Figure 5: per-partition ROS files. Two days → at least two files.
	if res.FilesWritten < 2 {
		t.Fatalf("files = %d, want >= 2 (one per partition)", res.FilesWritten)
	}

	after := e.mustRead(t, "d.orders")
	if len(after) != len(before) {
		t.Fatalf("rows after conversion = %d, want %d", len(after), len(before))
	}
	for i := range before {
		if before[i].Seq != after[i].Seq {
			t.Fatalf("row %d seq changed: %d vs %d", i, before[i].Seq, after[i].Seq)
		}
		if !before[i].Row.Values[1].Equal(after[i].Row.Values[1]) {
			t.Fatalf("row %d content changed", i)
		}
	}
	// The snapshot scan now reads ROS, not WOS.
	plan, err := e.c.Plan(e.ctx, "d.orders", 0)
	if err != nil {
		t.Fatal(err)
	}
	wos, ros := countFormats(plan)
	if ros == 0 {
		t.Fatal("no ROS assignments after conversion")
	}
	if wos != 0 {
		t.Fatalf("%d WOS assignments remain for fully converted data", wos)
	}
	// Exactly-once across the handoff: a snapshot before the conversion
	// still reads the WOS generation and the same rows (§6.1).
	oldRows, oldPlan, err := e.c.ReadAll(e.ctx, "d.orders", preTS)
	if err != nil {
		t.Fatal(err)
	}
	if len(oldRows) != len(before) {
		t.Fatalf("pre-handoff snapshot rows = %d, want %d", len(oldRows), len(before))
	}
	_, oldROS := countFormats(oldPlan)
	if oldROS != 0 {
		t.Fatal("pre-handoff snapshot saw ROS fragments")
	}
	// Converting again finds nothing.
	res2, err := e.opt.ConvertTable(e.ctx, "d.orders")
	if err != nil {
		t.Fatal(err)
	}
	if res2.FragmentsConverted != 0 {
		t.Fatalf("second conversion converted %d fragments (double conversion!)", res2.FragmentsConverted)
	}
}

func TestConvertCompactsUpserts(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.cdc", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	base := orderRow(0, 1, "ACME")
	v2 := orderRow(0, 1, "ACME")
	v2.Values[3] = schema.Int64(999)
	rows := []schema.Row{
		base.WithChange(schema.ChangeUpsert),
		orderRow(0, 2, "Zeta").WithChange(schema.ChangeUpsert),
		v2.WithChange(schema.ChangeUpsert), // supersedes base (same orderKey)
	}
	e.ingestAndSeal(t, "d.cdc", rows)
	res, err := e.opt.ConvertTable(e.ctx, "d.cdc")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsConverted != 2 {
		t.Fatalf("converted %d rows, want 2 (superseded version dropped)", res.RowsConverted)
	}
	got := e.mustRead(t, "d.cdc")
	resolved := dml.ResolveChanges(ordersSchema(), got, true)
	if len(resolved) != 2 {
		t.Fatalf("resolved rows = %d, want 2", len(resolved))
	}
	for _, r := range resolved {
		if r.Row.Values[1].AsString() == "O-0-1" && r.Row.Values[3].AsInt64() != 999 {
			t.Fatalf("stale UPSERT version survived: %v", r.Row.Values)
		}
	}
}

func TestYieldToActiveDML(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.y", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, orderRow(0, i, "C"))
	}
	e.ingestAndSeal(t, "d.y", rows)
	// Open a DML window.
	addr, _ := e.r.Router().SMSFor("d.y")
	beginResp, err := e.r.Net.Unary(e.ctx, addr, wire.MethodBeginDML, &wire.BeginDMLRequest{Table: "d.y"})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.opt.ConvertTable(e.ctx, "d.y")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Yielded || res.FragmentsConverted != 0 {
		t.Fatalf("optimizer did not yield to DML: %+v", res)
	}
	// Close the window: conversion proceeds.
	if _, err := e.r.Net.Unary(e.ctx, addr, wire.MethodEndDML, &wire.EndDMLRequest{Table: "d.y", Token: beginResp.(*wire.BeginDMLResponse).Token}); err != nil {
		t.Fatal(err)
	}
	res, err = e.opt.ConvertTable(e.ctx, "d.y")
	if err != nil {
		t.Fatal(err)
	}
	if res.Yielded || res.FragmentsConverted == 0 {
		t.Fatalf("conversion after DML window: %+v", res)
	}
}

func TestStableConversionTransfersMasks(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.stable", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, orderRow(0, i, "C"))
	}
	e.ingestAndSeal(t, "d.stable", rows)
	// Mark rows 2..5 deleted on the (single) WOS fragment via DML commit.
	plan, err := e.c.Plan(e.ctx, "d.stable", 0)
	if err != nil {
		t.Fatal(err)
	}
	var fid meta.FragmentID
	for _, a := range plan.Assignments {
		if a.Frag.Format == meta.WOS && a.Frag.RowCount == 10 {
			fid = a.Frag.ID
		}
	}
	if fid == "" {
		t.Fatalf("no single 10-row WOS fragment found; assignments: %d", len(plan.Assignments))
	}
	mask := &dml.Mask{}
	mask.Add(2, 6)
	addr, _ := e.r.Router().SMSFor("d.stable")
	if _, err := e.r.Net.Unary(e.ctx, addr, wire.MethodCommitDML, &wire.CommitDMLRequest{
		Table:         "d.stable",
		FragmentMasks: map[meta.FragmentID]*dml.Mask{fid: mask},
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.mustRead(t, "d.stable"); len(got) != 6 {
		t.Fatalf("after DML: %d rows, want 6", len(got))
	}
	res, err := e.opt.ConvertTableStable(e.ctx, "d.stable")
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsConverted == 0 || res.RowsConverted != 10 {
		t.Fatalf("stable conversion: %+v", res)
	}
	// The mask transferred: reads through ROS still hide rows 2..5.
	if got := e.mustRead(t, "d.stable"); len(got) != 6 {
		t.Fatalf("after stable conversion: %d rows, want 6 (mask lost)", len(got))
	}
}

func TestReclusterRestoresClusteringRatio(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.rc", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	// Round 1: customers A..M; convert → baseline.
	var r1 []schema.Row
	for i := 0; i < 30; i++ {
		r1 = append(r1, orderRow(0, i, fmt.Sprintf("C-%02d", i%13)))
	}
	e.ingestAndSeal(t, "d.rc", r1)
	if _, err := e.opt.ConvertTable(e.ctx, "d.rc"); err != nil {
		t.Fatal(err)
	}
	// Round 2: overlapping customer keys → delta overlapping baseline.
	var r2 []schema.Row
	for i := 0; i < 30; i++ {
		r2 = append(r2, orderRow(0, 100+i, fmt.Sprintf("C-%02d", i%13)))
	}
	e.ingestAndSeal(t, "d.rc", r2)
	if _, err := e.opt.ConvertTable(e.ctx, "d.rc"); err != nil {
		t.Fatal(err)
	}
	st, err := e.opt.ClusteringRatio(e.ctx, "d.rc")
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaRows == 0 {
		t.Fatalf("expected overlapping delta, state = %+v", st)
	}
	before := e.mustRead(t, "d.rc")

	merged, err := e.opt.Recluster(e.ctx, "d.rc", true)
	if err != nil {
		t.Fatal(err)
	}
	if merged == 0 {
		t.Fatal("recluster merged nothing")
	}
	st, err = e.opt.ClusteringRatio(e.ctx, "d.rc")
	if err != nil {
		t.Fatal(err)
	}
	if st.Ratio != 1 || st.DeltaRows != 0 {
		t.Fatalf("post-recluster state = %+v, want ratio 1", st)
	}
	after := e.mustRead(t, "d.rc")
	if len(after) != len(before) {
		t.Fatalf("recluster changed row count: %d vs %d", len(after), len(before))
	}
	seen := map[int64]bool{}
	for _, r := range after {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d after recluster", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestReclusterTriggerThreshold(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.th", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	var r1 []schema.Row
	for i := 0; i < 200; i++ {
		r1 = append(r1, orderRow(0, i, fmt.Sprintf("C-%03d", i)))
	}
	e.ingestAndSeal(t, "d.th", r1)
	if _, err := e.opt.ConvertTable(e.ctx, "d.th"); err != nil {
		t.Fatal(err)
	}
	// A tiny delta must NOT trigger a merge.
	var r2 []schema.Row
	for i := 0; i < 5; i++ {
		r2 = append(r2, orderRow(0, 1000+i, fmt.Sprintf("C-%03d", i)))
	}
	e.ingestAndSeal(t, "d.th", r2)
	if _, err := e.opt.ConvertTable(e.ctx, "d.th"); err != nil {
		t.Fatal(err)
	}
	merged, err := e.opt.Recluster(e.ctx, "d.th", false)
	if err != nil {
		t.Fatal(err)
	}
	if merged != 0 {
		t.Fatalf("merge triggered by a %d-row delta below MinDeltaRows", len(r2))
	}
}

func TestConversionWhileStreamStillWritable(t *testing.T) {
	// Fragments rotate at 1KB; earlier fragments of a live streamlet get
	// converted while the stream keeps appending — the union read stays
	// exactly-once (§7).
	e := newEnv(t, 1024)
	if err := e.c.CreateTable(e.ctx, "d.live", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	s, err := e.c.CreateStream(e.ctx, "d.live", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := s.Append(e.ctx, []schema.Row{orderRow(0, i, "C")}, client.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	e.r.HeartbeatAll(e.ctx, false)
	res, err := e.opt.ConvertTable(e.ctx, "d.live")
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsConverted == 0 {
		t.Fatal("no finalized fragments converted from the live streamlet")
	}
	// Keep appending after conversion.
	for i := 40; i < 50; i++ {
		if _, err := s.Append(e.ctx, []schema.Row{orderRow(0, i, "C")}, client.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	rows := e.mustRead(t, "d.live")
	if len(rows) != 50 {
		t.Fatalf("union read = %d rows, want 50", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		k := r.Row.Values[1].AsString()
		if seen[k] {
			t.Fatalf("duplicate order %s across WOS/ROS union", k)
		}
		seen[k] = true
	}
}

// refuseWrites is a colossus.Chaos that lets a cluster's first `after`
// writes through and refuses every later one: an outage that begins
// between two writes of one conversion.
type refuseWrites struct {
	mu    sync.Mutex
	after int
	seen  int
}

func (c *refuseWrites) Inject(_ context.Context, point, _ string) error {
	if point != colossus.ChaosPointWrite {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	if c.seen > c.after {
		return errors.New("outage")
	}
	return nil
}

// TestFailedConversionDeletesWhatItWrote: a conversion writes each ROS
// file to two clusters and registers them all at the end, so a write
// that fails part-way leaves files nothing knows about. The second
// cluster goes down between the two writes of the second file: the
// first file (both replicas) and the second file's first replica must be
// gone again, the table still reads from WOS, and the conversion goes
// through once the cluster is back.
func TestFailedConversionDeletesWhatItWrote(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.orders", ordersSchema()); err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for day := 0; day < 2; day++ { // two partitions: two files
		for i := 0; i < 20; i++ {
			rows = append(rows, orderRow(day, i, fmt.Sprintf("C-%02d", i%7)))
		}
	}
	e.ingestAndSeal(t, "d.orders", rows)
	plan, err := e.c.Plan(e.ctx, "d.orders", 0)
	if err != nil {
		t.Fatal(err)
	}
	pair := plan.Assignments[0].Frag.Clusters
	second := e.r.Colossus.Cluster(pair[1])
	second.SetChaos(&refuseWrites{after: 1})

	if _, err := e.opt.ConvertTable(e.ctx, "d.orders"); err == nil {
		t.Fatal("conversion succeeded with a cluster refusing writes")
	}
	for _, name := range pair {
		left, err := e.r.Colossus.Cluster(name).List("ros/")
		if err != nil {
			t.Fatal(err)
		}
		if len(left) != 0 {
			t.Errorf("cluster %s still holds %v after the failed conversion", name, left)
		}
	}
	if got := e.mustRead(t, "d.orders"); len(got) != len(rows) {
		t.Fatalf("read %d rows after the failed conversion, want %d", len(got), len(rows))
	}

	second.SetChaos(nil)
	res, err := e.opt.ConvertTable(e.ctx, "d.orders")
	if err != nil || res.FilesWritten != 2 {
		t.Fatalf("conversion after the outage = %+v, %v; want 2 files", res, err)
	}
	if got := e.mustRead(t, "d.orders"); len(got) != len(rows) {
		t.Fatalf("read %d rows after conversion, want %d", len(got), len(rows))
	}
}

// TestFragmentRecordsStaySmall: a fragment's metadata record — what the
// SMS keeps in Spanner, re-marshals on heartbeats and parses for every
// read view — carries the fragment's filter, so it is only as small as
// the filter is. Sized from the keys the fragment holds, the record of a
// finalized WOS fragment and of a ROS file both stay under 2 KiB (they
// were ≈26 KB and ≈105 KB with fixed-capacity filters).
func TestFragmentRecordsStaySmall(t *testing.T) {
	e := newEnv(t, 0)
	if err := e.c.CreateTable(e.ctx, "d.sales", workload.SalesSchema()); err != nil {
		t.Fatal(err)
	}
	e.ingestAndSeal(t, "d.sales", workload.NewGen(3, 300).SalesRows(0, 600))
	check := func(format meta.Format) {
		t.Helper()
		plan, err := e.c.Plan(e.ctx, "d.sales", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range plan.Assignments {
			if a.Frag.Format != format || len(a.Frag.Bloom) == 0 {
				t.Fatalf("fragment %s: format %v with a %d-byte filter, want %v with one", a.Frag.ID, a.Frag.Format, len(a.Frag.Bloom), format)
			}
			n := len(meta.MarshalFragment(&a.Frag))
			t.Logf("%v fragment of %d rows: %d-byte record, %d-byte filter", format, a.Frag.RowCount, n, len(a.Frag.Bloom))
			if n > 2<<10 {
				t.Errorf("%v fragment %s (%d rows): record is %d bytes, %d of them filter", format, a.Frag.ID, a.Frag.RowCount, n, len(a.Frag.Bloom))
			}
		}
	}
	check(meta.WOS)
	if _, err := e.opt.ConvertTable(e.ctx, "d.sales"); err != nil {
		t.Fatal(err)
	}
	check(meta.ROS)
}
