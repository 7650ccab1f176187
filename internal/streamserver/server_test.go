package streamserver

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/colossus"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

type stubRouter struct{ addr string }

func (s stubRouter) SMSFor(meta.TableID) (string, error) { return s.addr, nil }

func testSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		ClusterBy: []string{"k"},
	}
}

func newServer(t *testing.T, maxFrag int64) (*Server, *colossus.Region, *rpc.Network) {
	t.Helper()
	region := colossus.NewRegion("a", "b")
	net := rpc.NewNetwork(nil)
	cfg := DefaultConfig("ss-1")
	if maxFrag > 0 {
		cfg.MaxFragmentBytes = maxFrag
	}
	srv := New(cfg, region, truetime.Default(), blockenc.NewKeyring(), stubRouter{"sms-0"}, net)
	return srv, region, net
}

func createStreamlet(t *testing.T, net *rpc.Network, id meta.StreamletID) {
	t.Helper()
	_, err := net.Unary(context.Background(), "ss-1", wire.MethodCreateStreamlet, &wire.CreateStreamletRequest{
		Info: meta.StreamletInfo{
			ID: id, Stream: "s-1", Table: "d.t",
			Clusters: [2]string{"a", "b"},
		},
		Schema: testSchema(),
		Epoch:  7,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func appendRows(t *testing.T, net *rpc.Network, id meta.StreamletID, offset int64, n int) *wire.AppendResponse {
	t.Helper()
	rows := make([]schema.Row, n)
	for i := range rows {
		rows[i] = schema.NewRow(schema.String("key"), schema.Int64(int64(i)))
	}
	payload := wire.AppendBlock(nil, rows)
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{
		Streamlet:            id,
		Payload:              payload,
		CRC:                  blockenc.Checksum(payload),
		ExpectedStreamOffset: offset,
	})
	if err != nil {
		t.Fatal(err)
	}
	return resp.(*wire.AppendResponse)
}

func TestAppendWritesIdenticalReplicas(t *testing.T) {
	_, region, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	if resp := appendRows(t, net, "s-1/sl-0", -1, 5); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	if resp := appendRows(t, net, "s-1/sl-0", -1, 3); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	path := fragment.Path("d.t", "s-1/sl-0", 0)
	a, err := region.Cluster("a").Read(path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := region.Cluster("b").Read(path, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("replicas diverge: replication must be physical (§5.6)")
	}
	scan, err := fragment.Scan(a)
	if err != nil {
		t.Fatal(err)
	}
	// Second append carries the first append's piggybacked commit record.
	kinds := []fragment.BlockKind{}
	for _, blk := range scan.Blocks {
		kinds = append(kinds, blk.Kind)
	}
	want := []fragment.BlockKind{fragment.BlockData, fragment.BlockCommit, fragment.BlockData}
	if len(kinds) != len(want) {
		t.Fatalf("blocks = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("block %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestOffsetValidation(t *testing.T) {
	_, _, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	if resp := appendRows(t, net, "s-1/sl-0", 0, 4); resp.Error != "" {
		t.Fatal(resp.Error)
	}
	// Pipelined next offset must be 4; anything else fails.
	if resp := appendRows(t, net, "s-1/sl-0", 14, 5); !strings.HasPrefix(resp.Error, wire.ErrCodeWrongOffset) {
		t.Fatalf("out-of-order offset: %q", resp.Error)
	}
	if resp := appendRows(t, net, "s-1/sl-0", 4, 5); resp.Error != "" {
		t.Fatal(resp.Error)
	}
}

func TestSchemaStaleness(t *testing.T) {
	_, _, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	rows := []schema.Row{schema.NewRow(schema.String("k"), schema.Int64(1))}
	payload := wire.AppendBlock(nil, rows)
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{
		Streamlet:            "s-1/sl-0",
		Payload:              payload,
		CRC:                  blockenc.Checksum(payload),
		SchemaVersion:        -1, // older than the server's version 0
		ExpectedStreamOffset: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(resp.(*wire.AppendResponse).Error, wire.ErrCodeSchemaStale) {
		t.Fatalf("stale schema: %q", resp.(*wire.AppendResponse).Error)
	}
}

func TestBadCRCRejected(t *testing.T) {
	_, _, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	payload := wire.AppendBlock(nil, []schema.Row{schema.NewRow(schema.String("k"), schema.Int64(1))})
	resp, _ := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{
		Streamlet: "s-1/sl-0", Payload: payload, CRC: blockenc.Checksum(payload) + 1, ExpectedStreamOffset: -1,
	})
	if !strings.HasPrefix(resp.(*wire.AppendResponse).Error, wire.ErrCodeBadPayload) {
		t.Fatalf("bad crc: %q", resp.(*wire.AppendResponse).Error)
	}
}

// TestMalformedPayloadsAnsweredBadPayload: a payload whose CRC matches
// but which wire.DecodeBlock refuses is answered BAD_PAYLOAD, and
// nothing of it is written: the streamlet stays empty and fragment-less,
// and the next good append lands at offset 0.
func TestMalformedPayloadsAnsweredBadPayload(t *testing.T) {
	_, _, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	good := wire.AppendBlock(nil, []schema.Row{
		schema.NewRow(schema.String("k"), schema.Int64(1)),
		schema.NewRow(schema.String("j"), schema.Int64(2)),
	})
	// good is rows 2 | row headers 2<<2 2<<2 | width 2 | columns.
	edit := func(i int, b byte) []byte {
		p := append([]byte(nil), good...)
		p[i] = b
		return p
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"truncated column", good[:len(good)-1]},
		{"row count disagreeing with the payload", edit(0, 1)},
		{"unknown encoding byte", edit(4, 9)},
		{"hostile row count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0}},
	} {
		resp, err := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{
			Streamlet: "s-1/sl-0", Payload: tc.payload, CRC: blockenc.Checksum(tc.payload), ExpectedStreamOffset: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := resp.(*wire.AppendResponse).Error; !strings.HasPrefix(got, wire.ErrCodeBadPayload) {
			t.Fatalf("%s: answered %q, want %s", tc.name, got, wire.ErrCodeBadPayload)
		}
	}
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodStreamletState, &wire.StreamletStateRequest{Streamlet: "s-1/sl-0"})
	if err != nil {
		t.Fatal(err)
	}
	if st := resp.(*wire.StreamletStateResponse); st.RowCount != 0 || len(st.Fragments) != 0 {
		t.Fatalf("after refused appends: %d rows in %d fragments", st.RowCount, len(st.Fragments))
	}
	if resp := appendRows(t, net, "s-1/sl-0", 0, 2); resp.Error != "" || resp.StreamOffset != 0 {
		t.Fatalf("good append after refused ones: offset %d, %q", resp.StreamOffset, resp.Error)
	}
}

// TestFragmentPropsFollowTheKeyColumns: the partition set, clustering
// bounds and bloom keys a finalized fragment records, taken from the
// typed key columns of its blocks, are those the row-at-a-time
// schema.PartitionOf and ClusterKeyOf give for the rows appended —
// including a row written before the key fields existed, which has no
// partition and a NULL clustering key.
func TestFragmentPropsFollowTheKeyColumns(t *testing.T) {
	_, _, net := newServer(t, 0)
	sc := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Nullable},
			{Name: "k", Kind: schema.KindString, Mode: schema.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"k"},
	}
	if _, err := net.Unary(context.Background(), "ss-1", wire.MethodCreateStreamlet, &wire.CreateStreamletRequest{
		Info:   meta.StreamletInfo{ID: "s-1/sl-0", Stream: "s-1", Table: "d.t", Clusters: [2]string{"a", "b"}},
		Schema: sc,
	}); err != nil {
		t.Fatal(err)
	}
	day := func(d int64) schema.Value { return schema.TimestampNanos(d * 86400 * int64(time.Second)) }
	appends := [][]schema.Row{
		{schema.NewRow(schema.Int64(1), day(3), schema.String("m")), schema.NewRow(schema.Int64(2))},
		{
			schema.NewRow(schema.Int64(3), day(5), schema.String("c")),
			schema.NewRow(schema.Int64(4), day(7), schema.String("x")),
			schema.NewRow(schema.Int64(5), schema.Null(), schema.Null()),
		},
	}
	wantParts := map[int64]bool{}
	var wantMin, wantMax []schema.Value
	for _, rows := range appends {
		payload := wire.AppendBlock(nil, rows)
		resp, err := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{
			Streamlet: "s-1/sl-0", Payload: payload, CRC: blockenc.Checksum(payload), ExpectedStreamOffset: -1,
		})
		if err != nil || resp.(*wire.AppendResponse).Error != "" {
			t.Fatalf("append: %v %v", err, resp)
		}
		for _, r := range rows {
			if p, ok := sc.PartitionOf(r); ok {
				wantParts[p] = true
			}
			ck := sc.ClusterKeyOf(r)
			if wantMin == nil || schema.CompareClusterKeys(ck, wantMin) < 0 {
				wantMin = ck
			}
			if wantMax == nil || schema.CompareClusterKeys(ck, wantMax) > 0 {
				wantMax = ck
			}
		}
	}
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodFinalizeStreamlet, &wire.FinalizeStreamletRequest{Streamlet: "s-1/sl-0"})
	if err != nil {
		t.Fatal(err)
	}
	frags := resp.(*wire.FinalizeStreamletResponse).Fragments
	if len(frags) != 1 {
		t.Fatalf("%d fragments, want 1", len(frags))
	}
	f := frags[0]
	gotParts := map[int64]bool{}
	for _, p := range f.PartitionSet {
		gotParts[p] = true
	}
	if fmt.Sprint(gotParts) != fmt.Sprint(wantParts) {
		t.Errorf("partition set %v, want %v", f.PartitionSet, wantParts)
	}
	if !bytes.Equal(f.ClusterMin, rowenc.EncodeValues(wantMin)) || !bytes.Equal(f.ClusterMax, rowenc.EncodeValues(wantMax)) {
		t.Errorf("cluster bounds %x..%x, want %v..%v", f.ClusterMin, f.ClusterMax, wantMin, wantMax)
	}
	filter, err := bloom.Unmarshal(f.Bloom)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"m", "c", "x"} {
		if !filter.ContainsString(schema.String(k).Key()) {
			t.Errorf("bloom filter lacks clustering key %q", k)
		}
	}
}

func TestFragmentRotationOnSize(t *testing.T) {
	_, _, net := newServer(t, 512)
	createStreamlet(t, net, "s-1/sl-0")
	for i := 0; i < 10; i++ {
		if resp := appendRows(t, net, "s-1/sl-0", -1, 10); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodStreamletState, &wire.StreamletStateRequest{Streamlet: "s-1/sl-0"})
	if err != nil {
		t.Fatal(err)
	}
	st := resp.(*wire.StreamletStateResponse)
	if st.RowCount != 100 {
		t.Fatalf("rows = %d", st.RowCount)
	}
	if len(st.Fragments) < 2 {
		t.Fatalf("fragments = %d; rotation at 512B did not happen", len(st.Fragments))
	}
	finalized := 0
	var starts int64 = -1
	for _, f := range st.Fragments {
		if f.Finalized {
			finalized++
		}
		if f.StartRow <= starts {
			t.Fatalf("fragment start rows not increasing: %v", f.StartRow)
		}
		starts = f.StartRow
	}
	if finalized == 0 {
		t.Fatal("rotated fragments must be finalized (bloom+footer)")
	}
}

func TestUnknownStreamletAndCrash(t *testing.T) {
	srv, _, net := newServer(t, 0)
	resp := appendRows(t, net, "s-9/sl-0", -1, 1)
	if !strings.HasPrefix(resp.Error, wire.ErrCodeUnknown) {
		t.Fatalf("unknown streamlet: %q", resp.Error)
	}
	createStreamlet(t, net, "s-1/sl-0")
	srv.Crash()
	if _, err := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{Streamlet: "s-1/sl-0", ExpectedStreamOffset: -1}); err == nil {
		t.Fatal("crashed server still reachable")
	}
}

func TestFinalizeStreamletStopsAppends(t *testing.T) {
	_, _, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	appendRows(t, net, "s-1/sl-0", -1, 3)
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodFinalizeStreamlet, &wire.FinalizeStreamletRequest{Streamlet: "s-1/sl-0"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.FinalizeStreamletResponse).RowCount != 3 {
		t.Fatalf("final rows = %d", resp.(*wire.FinalizeStreamletResponse).RowCount)
	}
	if r := appendRows(t, net, "s-1/sl-0", -1, 1); !strings.HasPrefix(r.Error, wire.ErrCodeStreamletClosed) {
		t.Fatalf("append after finalize: %q", r.Error)
	}
}

func TestAssignTSMonotonicAndDense(t *testing.T) {
	srv, _, _ := newServer(t, 0)
	var last truetime.Timestamp
	for i := 0; i < 1000; i++ {
		ts := srv.assignTS(5)
		if ts <= last {
			t.Fatalf("timestamps overlap: %d after %d+4", ts, last)
		}
		last = ts + 4 // the batch occupies [ts, ts+4]
	}
	// Timestamps stay close to real time (bounded drift).
	if drift := time.Duration(int64(last) - time.Now().UnixNano()); drift > time.Second {
		t.Fatalf("sequence drifted %v from wall time", drift)
	}
}

// TestHeartbeatRelinquishRacesAppends relinquishes a streamlet through a
// heartbeat answer while appends race it: each append is acknowledged
// or refused STREAMLET_CLOSED, none lands after the transition, and the
// server's row count is exactly the rows it acknowledged.
func TestHeartbeatRelinquishRacesAppends(t *testing.T) {
	srv, _, net := newServer(t, 0)
	createStreamlet(t, net, "s-1/sl-0")
	payload := wire.AppendBlock(nil, []schema.Row{schema.NewRow(schema.String("k"), schema.Int64(1))})
	var acked atomic.Int64
	started := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			closed := false
			for i := 0; i < 50; i++ {
				if g == 0 && i == 5 {
					close(started)
				}
				resp, err := net.Unary(context.Background(), "ss-1", wire.MethodAppend, &wire.AppendRequest{
					Streamlet: "s-1/sl-0", Payload: payload, CRC: blockenc.Checksum(payload), ExpectedStreamOffset: -1,
				})
				if err != nil {
					t.Error(err)
					return
				}
				switch code := resp.(*wire.AppendResponse).Error; {
				case code == "" && closed:
					t.Error("append acknowledged after a refusal")
				case code == "":
					acked.Add(1)
				case code == wire.ErrCodeStreamletClosed:
					closed = true
				default:
					t.Errorf("append: %q", code)
				}
			}
		}(g)
	}
	<-started
	srv.applyHeartbeatResponse(&wire.HeartbeatResponse{FinalizedStreamlets: []meta.StreamletID{"s-1/sl-0"}})
	wg.Wait()
	resp, err := net.Unary(context.Background(), "ss-1", wire.MethodStreamletState, &wire.StreamletStateRequest{Streamlet: "s-1/sl-0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.(*wire.StreamletStateResponse).RowCount; got != acked.Load() {
		t.Fatalf("row count %d, acknowledged %d", got, acked.Load())
	}
	if r := appendRows(t, net, "s-1/sl-0", -1, 1); r.Error != wire.ErrCodeStreamletClosed {
		t.Fatalf("append after relinquish: %q", r.Error)
	}
}

// A streamlet a peer created without a schema takes the table's from
// the next heartbeat answer instead of crashing the heartbeat loop.
func TestHeartbeatSchemaReachesSchemalessStreamlet(t *testing.T) {
	srv, _, net := newServer(t, 0)
	if _, err := net.Unary(context.Background(), "ss-1", wire.MethodCreateStreamlet, &wire.CreateStreamletRequest{
		Info: meta.StreamletInfo{ID: "sl-bare", Table: "d.t"},
	}); err != nil {
		t.Fatal(err)
	}
	sc := testSchema()
	sc.Version = 2
	srv.applyHeartbeatResponse(&wire.HeartbeatResponse{Schemas: map[meta.TableID]*schema.Schema{"d.t": sc}})
	sl, _ := srv.lookup("sl-bare")
	if sl.schema != sc {
		t.Fatalf("schema = %v, want the heartbeat's", sl.schema)
	}
}

// TestSchemalessStreamletRefusesAppends: a streamlet created without a
// schema refuses an append, and a flush, as SCHEMA_STALE — retryable:
// the writer refetches its schema and retries — until a heartbeat
// answer gives it the table's; then the append lands.
func TestSchemalessStreamletRefusesAppends(t *testing.T) {
	srv, _, net := newServer(t, 0)
	if _, err := net.Unary(context.Background(), "ss-1", wire.MethodCreateStreamlet, &wire.CreateStreamletRequest{
		Info: meta.StreamletInfo{ID: "sl-bare", Stream: "s-1", Table: "d.t", Clusters: [2]string{"a", "b"}},
	}); err != nil {
		t.Fatal(err)
	}
	if resp := appendRows(t, net, "sl-bare", 0, 2); !strings.HasPrefix(resp.Error, wire.ErrCodeSchemaStale) {
		t.Fatalf("append to a schema-less streamlet: %+v, want %s", resp, wire.ErrCodeSchemaStale)
	}
	if _, err := net.Unary(context.Background(), "ss-1", wire.MethodFlush, &wire.FlushRequest{Streamlet: "sl-bare"}); err == nil || !strings.Contains(err.Error(), wire.ErrCodeSchemaStale) {
		t.Fatalf("flush of a schema-less streamlet: err %v, want %s", err, wire.ErrCodeSchemaStale)
	}
	srv.applyHeartbeatResponse(&wire.HeartbeatResponse{Schemas: map[meta.TableID]*schema.Schema{"d.t": testSchema()}})
	if resp := appendRows(t, net, "sl-bare", 0, 2); resp.Error != "" || resp.RowCount != 2 {
		t.Fatalf("append once the heartbeat gave the schema: %+v", resp)
	}
}

// TestDeleteFragmentsAcksOnlyFilesItHeld: a delete instruction for a
// fragment of a held streamlet deletes its files and is acked with its
// table; one for a streamlet the server no longer holds deletes nothing
// and is not acked, so the SMS keeps the record of files that remain.
func TestDeleteFragmentsAcksOnlyFilesItHeld(t *testing.T) {
	srv, region, net := newServer(t, 1) // every append closes its fragment
	for _, id := range []meta.StreamletID{"s-1/sl-0", "s-1/sl-1"} {
		createStreamlet(t, net, id)
		if resp := appendRows(t, net, id, -1, 2); resp.Error != "" {
			t.Fatal(resp.Error)
		}
	}
	held, dropped := meta.FragmentIDFor("s-1/sl-0", 0), meta.FragmentIDFor("s-1/sl-1", 0)
	srv.applyHeartbeatResponse(&wire.HeartbeatResponse{UnknownStreamlets: []meta.StreamletID{"s-1/sl-1"}})
	srv.applyHeartbeatResponse(&wire.HeartbeatResponse{DeleteFragments: []meta.FragmentID{held, dropped}})

	if want := []wire.FragmentRef{{Table: "d.t", ID: held}}; fmt.Sprint(srv.deletedAcks) != fmt.Sprint(want) {
		t.Fatalf("acks %v, want %v", srv.deletedAcks, want)
	}
	for _, c := range []string{"a", "b"} {
		if region.Cluster(c).Exists(fragment.Path("d.t", "s-1/sl-0", 0)) {
			t.Errorf("%s: the held fragment's file survived its delete", c)
		}
		if !region.Cluster(c).Exists(fragment.Path("d.t", "s-1/sl-1", 0)) {
			t.Errorf("%s: the unheld fragment's file was deleted", c)
		}
	}
}
