package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

func eventsSchema() *schema.Schema {
	return &schema.Schema{
		Fields: []*schema.Field{
			{Name: "ts", Kind: schema.KindTimestamp, Mode: schema.Required},
			{Name: "device", Kind: schema.KindString, Mode: schema.Required},
			{Name: "value", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		PartitionField: "ts",
		ClusterBy:      []string{"device"},
	}
}

func eventRow(i int) schema.Row {
	return schema.NewRow(
		schema.Timestamp(time.Date(2024, 6, 1, 0, 0, i, 0, time.UTC)),
		schema.String(fmt.Sprintf("device-%d", i%5)),
		schema.Int64(int64(i)),
	)
}

func setup(t testing.TB) (*Region, *client.Client, context.Context) {
	t.Helper()
	r := NewRegion(DefaultConfig())
	c := r.NewClient(client.DefaultOptions())
	return r, c, context.Background()
}

func mustCreateTable(t testing.TB, ctx context.Context, c *client.Client, table meta.TableID) {
	t.Helper()
	if err := c.CreateTable(ctx, table, eventsSchema()); err != nil {
		t.Fatal(err)
	}
}

func readValues(t testing.TB, ctx context.Context, c *client.Client, table meta.TableID, ts truetime.Timestamp) []int64 {
	t.Helper()
	rows, _, err := c.ReadAll(ctx, table, ts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = r.Row.Values[2].AsInt64()
	}
	return out
}

func TestUnbufferedReadAfterWrite(t *testing.T) {
	_, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.events")
	s, err := c.CreateStream(ctx, "d.events", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 3; batch++ {
		rows := []schema.Row{eventRow(batch * 2), eventRow(batch*2 + 1)}
		off, err := s.Append(ctx, rows, client.AtOffset(-1))
		if err != nil {
			t.Fatal(err)
		}
		if off != int64(batch*2) {
			t.Fatalf("batch %d landed at %d", batch, off)
		}
	}
	// Read-after-write WITHOUT any heartbeat: the SMS has never heard of
	// these fragments; the reader must discover the streamlet tail and
	// apply the commit rule (§7.1).
	got := readValues(t, ctx, c, "d.events", 0)
	if len(got) != 6 {
		t.Fatalf("read %d rows, want 6: %v", len(got), got)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d (order lost)", i, v)
		}
	}
}

func TestOffsetValidationGivesExactlyOnce(t *testing.T) {
	_, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.t")
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	rows := []schema.Row{eventRow(0), eventRow(1)}
	if _, err := s.Append(ctx, rows, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	// A retry of the same batch at the same offset must fail…
	if _, err := s.Append(ctx, rows, client.AtOffset(0)); !errors.Is(err, client.ErrWrongOffset) {
		t.Fatalf("duplicate append err = %v, want ErrWrongOffset", err)
	}
	// …and appending at the next offset succeeds.
	if _, err := s.Append(ctx, []schema.Row{eventRow(2)}, client.AtOffset(2)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order offsets are rejected too.
	if _, err := s.Append(ctx, []schema.Row{eventRow(9)}, client.AtOffset(7)); !errors.Is(err, client.ErrWrongOffset) {
		t.Fatalf("gap append err = %v", err)
	}
	if got := readValues(t, ctx, c, "d.t", 0); len(got) != 3 {
		t.Fatalf("read %d rows, want 3 (duplicates leaked?): %v", len(got), got)
	}
}

func TestBufferedFlushVisibility(t *testing.T) {
	_, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.buf")
	s, err := c.CreateStream(ctx, "d.buf", meta.Buffered)
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < 10; i++ {
		rows = append(rows, eventRow(i))
	}
	if _, err := s.Append(ctx, rows, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// Unflushed rows are durable but invisible (§4.2.1).
	if got := readValues(t, ctx, c, "d.buf", 0); len(got) != 0 {
		t.Fatalf("unflushed rows visible: %v", got)
	}
	// Flush half.
	if err := s.Flush(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if got := readValues(t, ctx, c, "d.buf", 0); len(got) != 5 {
		t.Fatalf("after flush(5): %d rows visible, want 5", len(got))
	}
	// Idempotent, and never regresses.
	if err := s.Flush(ctx, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if got := readValues(t, ctx, c, "d.buf", 0); len(got) != 5 {
		t.Fatalf("frontier regressed: %d rows", len(got))
	}
	// Flushing beyond the stream length fails (§4.2.3).
	if err := s.Flush(ctx, 11); err == nil {
		t.Fatal("flush past end accepted")
	}
	// Flush the rest.
	if err := s.Flush(ctx, 10); err != nil {
		t.Fatal(err)
	}
	if got := readValues(t, ctx, c, "d.buf", 0); len(got) != 10 {
		t.Fatalf("after full flush: %d rows", len(got))
	}
}

func TestPendingBatchCommitAtomicity(t *testing.T) {
	_, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.batch")
	// Two parallel workers, one PENDING stream each (§4.2.4).
	var streams []*client.Stream
	var ids []meta.StreamID
	for w := 0; w < 2; w++ {
		s, err := c.CreateStream(ctx, "d.batch", meta.Pending)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if _, err := s.Append(ctx, []schema.Row{eventRow(w*10 + i)}, client.AtOffset(-1)); err != nil {
				t.Fatal(err)
			}
		}
		streams = append(streams, s)
		ids = append(ids, s.Info().ID)
	}
	if got := readValues(t, ctx, c, "d.batch", 0); len(got) != 0 {
		t.Fatalf("uncommitted PENDING rows visible: %v", got)
	}
	// Commit requires finalization.
	if _, err := c.BatchCommit(ctx, "d.batch", ids); err == nil {
		t.Fatal("batch commit of unfinalized streams accepted")
	}
	for _, s := range streams {
		n, err := s.Finalize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if n != 3 {
			t.Fatalf("finalized row count = %d, want 3", n)
		}
	}
	before := readValues(t, ctx, c, "d.batch", 0)
	if len(before) != 0 {
		t.Fatal("finalized-but-uncommitted rows visible")
	}
	commitTS, err := c.BatchCommit(ctx, "d.batch", ids)
	if err != nil {
		t.Fatal(err)
	}
	if got := readValues(t, ctx, c, "d.batch", 0); len(got) != 6 {
		t.Fatalf("after commit: %d rows, want 6", len(got))
	}
	// A snapshot before the commit still sees nothing (time travel).
	if got := readValues(t, ctx, c, "d.batch", commitTS-1); len(got) != 0 {
		t.Fatalf("pre-commit snapshot sees %d rows", len(got))
	}
	// Idempotent re-commit.
	if _, err := c.BatchCommit(ctx, "d.batch", ids); err != nil {
		t.Fatal(err)
	}
}

func TestFinalizeStreamStopsAppends(t *testing.T) {
	_, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.fin")
	s, err := c.CreateStream(ctx, "d.fin", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(1)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	n, err := s.Finalize(ctx)
	if err != nil || n != 1 {
		t.Fatalf("finalize: %d, %v", n, err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(2)}, client.AtOffset(-1)); !errors.Is(err, client.ErrStreamFinalized) {
		t.Fatalf("append after finalize: %v", err)
	}
	// A second stream object appending to the finalized stream is also
	// rejected at the SMS.
	if got := readValues(t, ctx, c, "d.fin", 0); len(got) != 1 {
		t.Fatalf("rows = %v", got)
	}
}

func TestSnapshotReadsAreStable(t *testing.T) {
	r, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.snap")
	s, err := c.CreateStream(ctx, "d.snap", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(0)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// TrueTime cannot order events closer together than its uncertainty:
	// separate the snapshot and the second append by > 2ε.
	snap := r.Clock.Now().Latest
	time.Sleep(12 * time.Millisecond)
	if _, err := s.Append(ctx, []schema.Row{eventRow(1)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	if got := readValues(t, ctx, c, "d.snap", snap); len(got) != 1 || got[0] != 0 {
		t.Fatalf("snapshot read = %v, want [0]", got)
	}
	if got := readValues(t, ctx, c, "d.snap", 0); len(got) != 2 {
		t.Fatalf("current read = %v", got)
	}
}

func TestStreamServerCrashRotatesStreamlet(t *testing.T) {
	r, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.crash")
	s, err := c.CreateStream(ctx, "d.crash", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(0), eventRow(1)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// Find and crash the server hosting the streamlet.
	server := findStreamServer(t, r, "d.crash")
	r.CrashStreamServer(server)

	// The next append transparently rotates to a new streamlet on a
	// different server (§5.4, §5.3).
	if _, err := s.Append(ctx, []schema.Row{eventRow(2)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	got := readValues(t, ctx, c, "d.crash", 0)
	if len(got) != 3 {
		t.Fatalf("after crash rotation: rows = %v, want [0 1 2]", got)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d", i, v)
		}
	}
	// Offset continuity across streamlets: the stream is 3 rows long.
	if off, err := s.Append(ctx, []schema.Row{eventRow(3)}, client.AtOffset(3)); err != nil || off != 3 {
		t.Fatalf("offset continuity: off=%d err=%v", off, err)
	}
}

// findStreamServer locates the server that has received the table's
// appends (tests use one active table per region).
func findStreamServer(t *testing.T, r *Region, table meta.TableID) string {
	t.Helper()
	var best string
	var bestOps int64
	for addr, srv := range r.StreamServers {
		if st := srv.Stats(); st.AppendOps > bestOps {
			best, bestOps = addr, st.AppendOps
		}
	}
	if best == "" {
		t.Fatal("no stream server has received appends")
	}
	return best
}

func TestColossusWriteFailureRotatesFragment(t *testing.T) {
	r, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.iofail")
	s, err := c.CreateStream(ctx, "d.iofail", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(0)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// Inject a transient write failure on one cluster: the server must
	// close the fragment and retry into a new one (§5.3).
	r.Colossus.Cluster("alpha").FailNextWrites(1)
	if _, err := s.Append(ctx, []schema.Row{eventRow(1)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(2)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	got := readValues(t, ctx, c, "d.iofail", 0)
	if len(got) != 3 {
		t.Fatalf("rows after fragment rotation = %v", got)
	}
}

func TestZombieWriterIsPoisoned(t *testing.T) {
	r, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.zombie")
	s, err := c.CreateStream(ctx, "d.zombie", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(0)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	zombieServer := findStreamServer(t, r, "d.zombie")
	// Partition the server: clients cannot reach it, but it still runs
	// (the zombie scenario of §5.6).
	r.Net.SetPartitioned(zombieServer, true)
	// The client's next append fails over to a new streamlet; the SMS
	// reconciliation poisons the old log files with a sentinel.
	if _, err := s.Append(ctx, []schema.Row{eventRow(1)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// Heal the partition. The zombie tries to keep writing to its old
	// streamlet: the conditional append hits the sentinel and the server
	// relinquishes ownership.
	r.Net.SetPartitioned(zombieServer, false)
	errCode := zombieAppend(t, r, zombieServer, s)
	if errCode == "" {
		t.Fatal("zombie append unexpectedly succeeded")
	}
	got := readValues(t, ctx, c, "d.zombie", 0)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("rows after zombie poisoning = %v, want [0 1]", got)
	}
}

// zombieAppend sends an append directly to a specific server for the
// stream's FIRST streamlet (the one it lost), returning the error code
// ("" on success).
func zombieAppend(t *testing.T, r *Region, server string, s *client.Stream) string {
	t.Helper()
	payload := wire.AppendBlock(nil, []schema.Row{eventRow(99)})
	slID := meta.StreamletIDFor(s.Info().ID, 0)
	resp, err := r.Net.Unary(context.Background(), server, wire.MethodAppend, &wire.AppendRequest{
		Streamlet:            slID,
		Payload:              payload,
		CRC:                  blockenc.Checksum(payload),
		ExpectedStreamOffset: -1,
	})
	if err != nil {
		return err.Error()
	}
	return resp.(*wire.AppendResponse).Error
}

func TestConcurrentWritersOwnStreams(t *testing.T) {
	_, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.many")
	const writers, perWriter = 8, 20
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.CreateStream(ctx, "d.many", meta.Unbuffered)
			if err != nil {
				errCh <- err
				return
			}
			for i := 0; i < perWriter; i++ {
				if _, err := s.Append(ctx, []schema.Row{eventRow(w*perWriter + i)}, client.AtOffset(int64(i))); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	got := readValues(t, ctx, c, "d.many", 0)
	if len(got) != writers*perWriter {
		t.Fatalf("read %d rows, want %d", len(got), writers*perWriter)
	}
	seen := map[int64]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate row %d", v)
		}
		seen[v] = true
	}
}

func TestSchemaEvolutionMidStream(t *testing.T) {
	r, c, ctx := setup(t)
	mustCreateTable(t, ctx, c, "d.evolve")
	s, err := c.CreateStream(ctx, "d.evolve", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{eventRow(0)}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	// Another principal evolves the schema.
	admin := r.NewClient(client.DefaultOptions())
	if _, err := admin.UpdateSchema(ctx, "d.evolve", &schema.Field{Name: "tag", Kind: schema.KindString, Mode: schema.Nullable}); err != nil {
		t.Fatal(err)
	}
	// The Stream Server learns the new schema via heartbeat (§5.4.1).
	r.HeartbeatAll(ctx, false)
	// A writer that already knows the new schema can use the new field.
	sc, err := c.GetSchema(ctx, "d.evolve")
	if err != nil {
		t.Fatal(err)
	}
	newRow := schema.NewRow(
		schema.Timestamp(time.Date(2024, 6, 1, 0, 0, 9, 0, time.UTC)),
		schema.String("device-9"),
		schema.Int64(9),
		schema.String("tagged"),
	)
	if err := sc.ValidateRow(newRow); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, []schema.Row{newRow}, client.AtOffset(-1)); err != nil {
		t.Fatal(err)
	}
	rows, _, err := c.ReadAll(ctx, "d.evolve", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	// The old row reads the added column as NULL.
	old := rows[0].Row
	if len(old.Values) >= 4 && !old.Values[3].IsNull() {
		t.Fatalf("old row's added field = %v, want NULL", old.Values[3])
	}
	if rows[1].Row.Values[3].AsString() != "tagged" {
		t.Fatalf("new row's field = %v", rows[1].Row.Values[3])
	}
}

func TestHeartbeatPromotesFragmentsAndReadStaysExactlyOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFragmentBytes = 1024 // force frequent fragment rotation
	r := NewRegion(cfg)
	c := r.NewClient(client.DefaultOptions())
	ctx := context.Background()
	mustCreateTable(t, ctx, c, "d.hb")
	s, err := c.CreateStream(ctx, "d.hb", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := s.Append(ctx, []schema.Row{eventRow(i)}, client.AtOffset(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Before heartbeat: everything is tail. After: fragments known to
	// the SMS. Reads must return exactly the same rows either way.
	before := readValues(t, ctx, c, "d.hb", 0)
	r.HeartbeatAll(ctx, false)
	after := readValues(t, ctx, c, "d.hb", 0)
	if len(before) != n || len(after) != n {
		t.Fatalf("before=%d after=%d, want %d", len(before), len(after), n)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("row %d changed across heartbeat: %d vs %d", i, before[i], after[i])
		}
	}
}
