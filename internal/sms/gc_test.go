package sms_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/dml"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/schema"
	"vortex/internal/spanner"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// TestGarbageCollectionLifecycle drives the full §5.4.3 loop: ingest →
// convert (WOS fragments marked deleted) → heartbeat (SMS instructs
// deletion, server deletes files and acks) → heartbeat (SMS drops the
// Spanner records) → groomer collects the ROS generation retired by a
// recluster. Reads stay correct throughout.
func TestGarbageCollectionLifecycle(t *testing.T) {
	r := core.NewRegion(core.DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	sc := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		ClusterBy: []string{"k"},
	}
	if err := c.CreateTable(ctx, "d.gc", sc); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.gc", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < 30; i++ {
		rows = append(rows, schema.NewRow(schema.String("key"), schema.Int64(int64(i))))
	}
	if _, err := s.Append(ctx, rows, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	r.HeartbeatAll(ctx, false)

	// Locate the WOS log files before conversion.
	wosPrefix := fragment.Prefix("d.gc", meta.StreamletIDFor(s.Info().ID, 0))
	paths, err := r.Colossus.Cluster("alpha").List(wosPrefix)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no WOS files found: %v %v", paths, err)
	}

	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, "d.gc"); err != nil {
		t.Fatal(err)
	}
	// Retention is 0 in tests, but "deleted" still means "deleted more
	// than a clock-uncertainty ago" (TT.after); wait out epsilon, then
	// drive two full-snapshot heartbeats: the first instructs deletion,
	// the second acks it and the Spanner records disappear (§5.4.3).
	time.Sleep(12 * time.Millisecond)
	r.HeartbeatAll(ctx, true)
	r.HeartbeatAll(ctx, true)
	for _, p := range paths {
		if r.Colossus.Cluster("alpha").Exists(p) || r.Colossus.Cluster("beta").Exists(p) {
			t.Fatalf("converted WOS file %s not garbage collected", p)
		}
	}
	// The records are gone from the read view too, and reads still work.
	rowsRead, _, err := c.ReadAll(ctx, "d.gc", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsRead) != 30 {
		t.Fatalf("rows after GC = %d", len(rowsRead))
	}

	// A second overlapping round becomes a delta; the forced recluster
	// then retires the first ROS generation. No stream server owns ROS
	// files, so only the groomer can collect them.
	s2, err := c.CreateStream(ctx, "d.gc", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	var rows2 []schema.Row
	for i := 0; i < 10; i++ {
		rows2 = append(rows2, schema.NewRow(schema.String("key"), schema.Int64(int64(100+i))))
	}
	if _, err := s2.Append(ctx, rows2, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	r.HeartbeatAll(ctx, true)
	if _, err := opt.ConvertTable(ctx, "d.gc"); err != nil {
		t.Fatal(err)
	}
	rosBefore, _ := r.Colossus.Cluster("alpha").List("ros/d.gc/")
	if len(rosBefore) < 2 {
		t.Fatalf("expected 2 ROS generations before recluster, got %v", rosBefore)
	}
	if merged, err := opt.Recluster(ctx, "d.gc", true); err != nil || merged == 0 {
		t.Fatalf("recluster: merged=%d err=%v", merged, err)
	}
	time.Sleep(12 * time.Millisecond)
	addr, _ := r.Router().SMSFor("d.gc")
	resp, err := r.Net.Unary(ctx, addr, wire.MethodGC, &wire.GCRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.GCResponse).FragmentsDeleted == 0 {
		t.Fatal("groomer collected nothing after recluster")
	}
	// The retired generation's files are gone; the live one remains.
	rosAfter, _ := r.Colossus.Cluster("alpha").List("ros/d.gc/")
	for _, old := range rosBefore {
		for _, now := range rosAfter {
			if old == now {
				t.Fatalf("retired ROS file %s survived the groomer", old)
			}
		}
	}
	if len(rosAfter) == 0 {
		t.Fatal("groomer deleted the LIVE generation")
	}
	// Idempotent: a second pass finds nothing.
	resp, err = r.Net.Unary(ctx, addr, wire.MethodGC, &wire.GCRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if n := resp.(*wire.GCResponse).FragmentsDeleted; n != 0 {
		t.Fatalf("second groomer pass deleted %d fragments", n)
	}
	rowsRead, _, err = c.ReadAll(ctx, "d.gc", 0)
	if err != nil || len(rowsRead) != 40 {
		t.Fatalf("rows after groomer = %d, %v", len(rowsRead), err)
	}
	// Spanner holds no stale fragment records.
	plan, err := c.Plan(ctx, "d.gc", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if strings.HasPrefix(string(a.Frag.ID), "ros/") && !a.Frag.Live() {
			t.Fatalf("deleted fragment %s still planned", a.Frag.ID)
		}
	}
}

// TestGroomerLeavesServerOwnedFragmentsToHeartbeat pins the division of
// labour between the two GC paths (§5.4.3). A converted WOS fragment
// whose streamlet record still exists may still be reported by its
// owning Stream Server; if the groomer deletes the Spanner record
// directly, the next full heartbeat re-registers the fragment as live
// with its files already gone, and every later read of the table fails.
// The groomer must skip such fragments and leave them to the heartbeat
// instruct/ack protocol, which removes server-local state before the
// record and therefore cannot resurrect.
//
// Found by the deterministic simulation harness (seed 42: groom at one
// epoch, full heartbeat two epochs later, permanent read wedge).
func TestGroomerLeavesServerOwnedFragmentsToHeartbeat(t *testing.T) {
	clock := truetime.NewManual(time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), time.Millisecond)
	cfg := core.DefaultConfig()
	cfg.Clock = clock
	r := core.NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	const table = meta.TableID("d.groom")

	retention := truetime.Timestamp((2 * time.Second).Nanoseconds())
	for _, task := range r.SMSTasks {
		task.SetRetention(retention)
	}

	sc := &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
	}}
	if err := c.CreateTable(ctx, table, sc); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, table, meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := s.Append(ctx, []schema.Row{schema.NewRow(schema.String("k"))}, client.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	r.HeartbeatAll(ctx, false)

	// Convert: the WOS fragments gain DeletionTS but their streamlet
	// records — and the owning server's local state — remain.
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	res, err := opt.ConvertTable(ctx, table)
	if err != nil {
		t.Fatal(err)
	}
	if res.FragmentsConverted == 0 {
		t.Fatal("conversion found no candidates")
	}

	clock.Advance(3 * time.Second) // past retention

	// The groomer must not collect the retired WOS fragments: their
	// streamlet records still exist, so the owning server may still
	// report them.
	for _, addr := range r.SMSAddrs() {
		resp, err := r.Net.Unary(ctx, addr, wire.MethodGC, &wire.GCRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(*wire.GCResponse).FragmentsDeleted; got != 0 {
			t.Fatalf("groomer deleted %d server-owned fragments", got)
		}
	}

	// A full heartbeat re-reports the streamlet. Before the groomer fix
	// this resurrected the fragment record as live (files gone) and the
	// read below failed with file-not-found on every replica. It now
	// carries the DeleteFragments instruction instead; the follow-up
	// heartbeat acks, and the records die without resurrection risk.
	r.HeartbeatAll(ctx, true)
	r.HeartbeatAll(ctx, false)

	rows, _, err := c.ReadAll(ctx, table, 0)
	if err != nil {
		t.Fatalf("read after groom+heartbeat: %v", err)
	}
	if len(rows) != n {
		t.Fatalf("rows after groom+heartbeat = %d, want %d", len(rows), n)
	}
	plan, err := c.Plan(ctx, table, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if a.Frag.Format != meta.ROS {
			t.Fatalf("scan plan still contains %v fragment %s", a.Frag.Format, a.Frag.ID)
		}
	}
}

// TestHeartbeatAcksDeleteOnlyTheirTables: one heartbeat acks fragments
// of two tables, and each ack names its table. The acked records and
// their masks go; every other record survives, the other table's record
// of the same fragment id included.
func TestHeartbeatAcksDeleteOnlyTheirTables(t *testing.T) {
	r, addr, ctx := env(t)
	f0, f1 := meta.FragmentIDFor("s-1/sl-0", 0), meta.FragmentIDFor("s-1/sl-0", 1)
	acks := []wire.FragmentRef{{Table: "d.a", ID: f0}, {Table: "d.b", ID: f1}}
	acked := map[string]bool{} // record and mask keys the acks name
	for _, a := range acks {
		acked[fmt.Sprintf("fragments/%s/%s", a.Table, a.ID)] = true
		acked[fmt.Sprintf("masks/%s/%s", a.Table, a.ID)] = true
	}
	var keys []string
	if _, err := r.DB.ReadWriteTxn(func(tx *spanner.Txn) error {
		for _, table := range []meta.TableID{"d.a", "d.b"} {
			for _, fid := range []meta.FragmentID{f0, f1} {
				rec, mask := fmt.Sprintf("fragments/%s/%s", table, fid), fmt.Sprintf("masks/%s/%s", table, fid)
				m := &dml.Mask{}
				m.Add(0, 1)
				tx.Put(rec, meta.MarshalFragment(&meta.FragmentInfo{ID: fid, Table: table, DeletionTS: 1}))
				tx.Put(mask, m.Marshal())
				keys = append(keys, rec, mask)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodHeartbeat, &wire.HeartbeatRequest{Server: "ss-test", DeletedFragments: acks}); err != nil {
		t.Fatal(err)
	}
	if err := r.DB.ReadTxn(func(tx *spanner.Txn) error {
		for _, key := range keys {
			if _, ok := tx.Get(key); ok == acked[key] {
				t.Errorf("%s: present %v after the acks, want %v", key, ok, !acked[key])
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
