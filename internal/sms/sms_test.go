package sms_test

import (
	"context"
	"errors"
	"testing"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/wire"
)

// The SMS is exercised end-to-end by internal/core's integration tests;
// these tests pin control-plane behaviours at the RPC boundary.

func env(t *testing.T) (*core.Region, string, context.Context) {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	addr, err := r.Router().SMSFor("d.t")
	if err != nil {
		t.Fatal(err)
	}
	return r, addr, context.Background()
}

func tSchema() *schema.Schema {
	return &schema.Schema{Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
	}}
}

func TestCreateTableValidation(t *testing.T) {
	r, addr, ctx := env(t)
	if _, err := r.Net.Unary(ctx, addr, wire.MethodCreateTable, &wire.CreateTableRequest{Table: "d.t"}); !errors.Is(err, sms.ErrBadRequest) {
		t.Fatalf("nil schema: %v", err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodCreateTable, &wire.CreateTableRequest{Table: "d.t", Schema: tSchema()}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodCreateTable, &wire.CreateTableRequest{Table: "d.t", Schema: tSchema()}); !errors.Is(err, sms.ErrAlreadyExists) {
		t.Fatalf("duplicate table: %v", err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodGetTable, &wire.GetTableRequest{Table: "d.missing"}); !errors.Is(err, sms.ErrNotFound) {
		t.Fatalf("missing table: %v", err)
	}
}

func TestWritableStreamletReuseAndExclusion(t *testing.T) {
	r, addr, ctx := env(t)
	if _, err := r.Net.Unary(ctx, addr, wire.MethodCreateTable, &wire.CreateTableRequest{Table: "d.t", Schema: tSchema()}); err != nil {
		t.Fatal(err)
	}
	cs, err := r.Net.Unary(ctx, addr, wire.MethodCreateStream, &wire.CreateStreamRequest{Table: "d.t", Type: meta.Unbuffered})
	if err != nil {
		t.Fatal(err)
	}
	id := cs.(*wire.CreateStreamResponse).Stream.ID
	g1, err := r.Net.Unary(ctx, addr, wire.MethodGetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: id})
	if err != nil {
		t.Fatal(err)
	}
	sl1 := g1.(*wire.GetWritableStreamletResponse).Streamlet
	// Same writable streamlet is handed out again.
	g2, err := r.Net.Unary(ctx, addr, wire.MethodGetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: id})
	if err != nil {
		t.Fatal(err)
	}
	if g2.(*wire.GetWritableStreamletResponse).Streamlet.ID != sl1.ID {
		t.Fatal("writable streamlet not reused")
	}
	// Excluding its server rotates to a new streamlet elsewhere.
	g3, err := r.Net.Unary(ctx, addr, wire.MethodGetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: id, ExcludeServer: sl1.Server})
	if err != nil {
		t.Fatal(err)
	}
	sl3 := g3.(*wire.GetWritableStreamletResponse).Streamlet
	if sl3.ID == sl1.ID || sl3.Server == sl1.Server {
		t.Fatalf("exclusion ignored: %+v vs %+v", sl1, sl3)
	}
	if sl3.Seq != sl1.Seq+1 {
		t.Fatalf("streamlet seq = %d, want %d", sl3.Seq, sl1.Seq+1)
	}
	// Clusters pair two distinct clusters (§5.6).
	if sl3.Clusters[0] == sl3.Clusters[1] || sl3.Clusters[0] == "" {
		t.Fatalf("replica clusters = %v", sl3.Clusters)
	}
}

func TestFlushStreamValidation(t *testing.T) {
	r, addr, ctx := env(t)
	c := r.NewClient(client.DefaultOptions())
	if err := c.CreateTable(ctx, "d.t", tSchema()); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	// Flushing an UNBUFFERED stream is a usage error (§4.2.3).
	if _, err := r.Net.Unary(ctx, addr, wire.MethodFlushStream, &wire.FlushStreamRequest{Stream: s.Info().ID, Offset: 1}); !errors.Is(err, sms.ErrBadRequest) {
		t.Fatalf("flush on UNBUFFERED: %v", err)
	}
}

func TestSlicerDoubleOwnershipIsSafe(t *testing.T) {
	// Two SMS tasks both think they own the table during a Slicer
	// reassignment window (§5.2.1): concurrent CreateStream requests
	// routed to BOTH must all succeed without corrupting metadata —
	// Spanner transactions make the overlap harmless.
	r, _, ctx := env(t)
	c := r.NewClient(client.DefaultOptions())
	if err := c.CreateTable(ctx, "d.t", tSchema()); err != nil {
		t.Fatal(err)
	}
	if len(r.SMSTasks) < 2 {
		t.Skip("needs 2 SMS tasks")
	}
	a, b := r.SMSTasks[0].Addr(), r.SMSTasks[1].Addr()
	seen := map[meta.StreamID]bool{}
	for i := 0; i < 10; i++ {
		for _, addr := range []string{a, b} {
			resp, err := r.Net.Unary(ctx, addr, wire.MethodCreateStream, &wire.CreateStreamRequest{Table: "d.t", Type: meta.Unbuffered})
			if err != nil {
				t.Fatal(err)
			}
			id := resp.(*wire.CreateStreamResponse).Stream.ID
			if seen[id] {
				t.Fatalf("duplicate stream id %s across SMS tasks", id)
			}
			seen[id] = true
		}
	}
	// Both tasks serve consistent reads of any stream.
	for id := range seen {
		ra, errA := r.Net.Unary(ctx, a, wire.MethodGetStream, &wire.GetStreamRequest{Stream: id})
		rb, errB := r.Net.Unary(ctx, b, wire.MethodGetStream, &wire.GetStreamRequest{Stream: id})
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		if ra.(*wire.GetStreamResponse).Stream.ID != rb.(*wire.GetStreamResponse).Stream.ID {
			t.Fatal("tasks disagree about stream state")
		}
		break
	}
}

func TestBatchCommitRejectsNonPending(t *testing.T) {
	r, addr, ctx := env(t)
	c := r.NewClient(client.DefaultOptions())
	if err := c.CreateTable(ctx, "d.t", tSchema()); err != nil {
		t.Fatal(err)
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodBatchCommit, &wire.BatchCommitRequest{Streams: []meta.StreamID{s.Info().ID}}); !errors.Is(err, sms.ErrBadRequest) {
		t.Fatalf("batch commit of UNBUFFERED: %v", err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodBatchCommit, &wire.BatchCommitRequest{}); !errors.Is(err, sms.ErrBadRequest) {
		t.Fatalf("empty batch commit: %v", err)
	}
}

func TestReconcileUnknownStreamlet(t *testing.T) {
	r, addr, ctx := env(t)
	c := r.NewClient(client.DefaultOptions())
	if err := c.CreateTable(ctx, "d.t", tSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Net.Unary(ctx, addr, wire.MethodReconcile, &wire.ReconcileRequest{Table: "d.t", Stream: "s-x", Streamlet: "s-x/sl-0"}); !errors.Is(err, sms.ErrNotFound) {
		t.Fatalf("reconcile of unknown streamlet: %v", err)
	}
}

// TestUpdateSchemaIsSafeToRetry: an add that already landed, sent again
// as it was (a retry whose first answer was lost), answers the schema it
// made without another version; an add that differs from the field
// already there is still refused.
func TestUpdateSchemaIsSafeToRetry(t *testing.T) {
	r, _, ctx := env(t)
	c := r.NewClient(client.DefaultOptions())
	if err := c.CreateTable(ctx, "d.t", tSchema()); err != nil {
		t.Fatal(err)
	}
	add := func() *schema.Field {
		return &schema.Field{Name: "r", Kind: schema.KindStruct, Mode: schema.Nullable, Fields: []*schema.Field{
			{Name: "x", Kind: schema.KindInt64, Mode: schema.Nullable},
		}}
	}
	first, err := c.UpdateSchema(ctx, "d.t", add())
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.UpdateSchema(ctx, "d.t", add())
	if err != nil {
		t.Fatalf("repeated identical add: %v", err)
	}
	if again.Version != first.Version || len(again.Fields) != len(first.Fields) {
		t.Fatalf("repeated add made v%d with %d fields, want v%d with %d", again.Version, len(again.Fields), first.Version, len(first.Fields))
	}
	differ := add()
	differ.Fields[0].Kind = schema.KindString
	if _, err := c.UpdateSchema(ctx, "d.t", differ); !errors.Is(err, sms.ErrBadRequest) {
		t.Fatalf("add of a differing field: %v, want ErrBadRequest", err)
	}
}
