package sms_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/spanner"
	"vortex/internal/wire"
)

// tailEnv is a stream whose second streamlet starts at stream offset 3
// and holds two closed fragments of four rows each: f-0 covers stream
// offsets [3, 7), and f-1, whose StartRow is 4, covers [7, 11).
type tailEnv struct {
	r      *core.Region
	addr   string
	ctx    context.Context
	stream meta.StreamID
	sl     meta.StreamletID
}

func newTailEnv(t *testing.T) *tailEnv {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.MaxFragmentBytes = 1 // every append closes its fragment
	r := core.NewRegion(cfg)
	ctx := context.Background()
	addr, err := r.Router().SMSFor("d.t")
	if err != nil {
		t.Fatal(err)
	}
	c := r.NewClient(client.DefaultOptions())
	if err := c.CreateTable(ctx, "d.t", tSchema()); err != nil {
		t.Fatal(err)
	}
	rows := func(n int) []schema.Row {
		out := make([]schema.Row, n)
		for i := range out {
			out[i] = schema.NewRow(schema.String("k"))
		}
		return out
	}
	s, err := c.CreateStream(ctx, "d.t", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(ctx, rows(3)); err != nil {
		t.Fatal(err)
	}
	r.HeartbeatAll(ctx, false)
	// Close sl-0 as a client that lost its server would: the next
	// streamlet starts at stream offset 3.
	id := s.Info().ID
	sl0 := streamletRecord(t, r, meta.StreamletIDFor(id, 0))
	g, err := r.Net.Unary(ctx, addr, wire.MethodGetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: id, ExcludeServer: sl0.Server})
	if err != nil {
		t.Fatal(err)
	}
	sl1 := g.(*wire.GetWritableStreamletResponse).Streamlet
	if sl1.StartOffset != 3 {
		t.Fatalf("second streamlet starts at %d, want 3", sl1.StartOffset)
	}
	s1, err := c.AttachStream(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s1.Append(ctx, rows(4)); err != nil {
			t.Fatal(err)
		}
	}
	return &tailEnv{r: r, addr: addr, ctx: ctx, stream: id, sl: sl1.ID}
}

func (e *tailEnv) call(t *testing.T, method string, req any) any {
	t.Helper()
	resp, err := e.r.Net.Unary(e.ctx, e.addr, method, req)
	if err != nil {
		t.Fatalf("%s: %v", method, err)
	}
	return resp
}

// deleteTail commits a DELETE of stream offsets 8 and 9 through the
// streamlet's tail mask.
func (e *tailEnv) deleteTail(t *testing.T) {
	m := &dml.Mask{}
	m.Add(8, 10)
	e.call(t, wire.MethodCommitDML, &wire.CommitDMLRequest{Table: "d.t", TailMasks: map[meta.StreamletID]*dml.Mask{e.sl: m}})
}

// fragmentMasks collects the non-empty masks the read view and the
// conversion candidates give the streamlet's fragments.
func (e *tailEnv) fragmentMasks(t *testing.T) (view, cands map[meta.FragmentID][]dml.Range) {
	view, cands = map[meta.FragmentID][]dml.Range{}, map[meta.FragmentID][]dml.Range{}
	add := func(into map[meta.FragmentID][]dml.Range, f meta.FragmentInfo, m *dml.Mask) {
		if f.Streamlet == e.sl && !m.Empty() {
			into[f.ID] = m.Ranges
		}
	}
	rv := e.call(t, wire.MethodReadView, &wire.ReadViewRequest{Table: "d.t"}).(*wire.ReadViewResponse)
	for _, rf := range rv.Fragments {
		add(view, rf.Info, rf.Mask)
	}
	for _, rsl := range rv.Streamlets {
		for fid, m := range rsl.FragmentMasks {
			add(view, meta.FragmentInfo{ID: fid, Streamlet: rsl.Info.ID}, m)
		}
	}
	cc := e.call(t, wire.MethodConversionCandidates, &wire.ConversionCandidatesRequest{Table: "d.t"}).(*wire.ConversionCandidatesResponse)
	for _, rf := range cc.Fragments {
		add(cands, rf.Info, rf.Mask)
	}
	return view, cands
}

// TestTailMaskReachesFragmentRows commits a DELETE of stream offsets 8
// and 9 as a streamlet-tail mask, in three orders against the
// streamlet's finalization. Whichever way it lands, the read view and
// the conversion candidates must mask f-1's local rows 1 and 2 — the
// shift by StartOffset + StartRow — and nothing else.
func TestTailMaskReachesFragmentRows(t *testing.T) {
	cases := []struct {
		name  string
		order func(t *testing.T, e *tailEnv)
	}{
		{"writable, fragment reported later", func(t *testing.T, e *tailEnv) {
			e.deleteTail(t)
			e.r.HeartbeatAll(e.ctx, false)
		}},
		{"committed, then server finalizes", func(t *testing.T, e *tailEnv) {
			e.r.HeartbeatAll(e.ctx, false)
			e.deleteTail(t)
			e.call(t, wire.MethodFinalizeStream, &wire.FinalizeStreamRequest{Stream: e.stream})
		}},
		{"reconciled, then committed", func(t *testing.T, e *tailEnv) {
			e.r.HeartbeatAll(e.ctx, false)
			e.call(t, wire.MethodReconcile, &wire.ReconcileRequest{Table: "d.t", Stream: e.stream, Streamlet: e.sl})
			e.deleteTail(t)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := newTailEnv(t)
			tc.order(t, e)
			want := map[meta.FragmentID][]dml.Range{meta.FragmentIDFor(e.sl, 1): {{Start: 1, End: 3}}}
			view, cands := e.fragmentMasks(t)
			if !reflect.DeepEqual(view, want) {
				t.Errorf("read view masks = %v, want %v", view, want)
			}
			if !reflect.DeepEqual(cands, want) {
				t.Errorf("conversion candidate masks = %v, want %v", cands, want)
			}
		})
	}
}

// TestCorruptMaskFailsTheTransaction pins that a stored mask that does
// not parse fails the transaction reading it, rather than reading as
// "nothing deleted": the read view would serve deleted rows, and a
// DELETE merged onto it would replace the stored deletions with its
// own.
func TestCorruptMaskFailsTheTransaction(t *testing.T) {
	e := newTailEnv(t)
	e.r.HeartbeatAll(e.ctx, false)
	fid := meta.FragmentIDFor(e.sl, 0)
	if _, err := e.r.DB.ReadWriteTxn(func(tx *spanner.Txn) error {
		tx.Put("masks/d.t/"+string(fid), []byte("{"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.r.Net.Unary(e.ctx, e.addr, wire.MethodReadView, &wire.ReadViewRequest{Table: "d.t"}); err == nil {
		t.Error("read view over a corrupt mask succeeded")
	}
	m := &dml.Mask{}
	m.Add(0, 1)
	if _, err := e.r.Net.Unary(e.ctx, e.addr, wire.MethodCommitDML, &wire.CommitDMLRequest{
		Table: "d.t", FragmentMasks: map[meta.FragmentID]*dml.Mask{fid: m},
	}); err == nil {
		t.Error("DELETE merged onto a corrupt mask succeeded")
	}
}

// TestCommitDMLRefusesInvalidRanges: masks arrive from a peer, and a
// range Mask.Add would panic on must be refused, not stored.
func TestCommitDMLRefusesInvalidRanges(t *testing.T) {
	e := newTailEnv(t)
	e.r.HeartbeatAll(e.ctx, false)
	for _, rg := range []dml.Range{{Start: -1, End: 2}, {Start: 3, End: 1}} {
		bad := &dml.Mask{Ranges: []dml.Range{rg}}
		for _, req := range []*wire.CommitDMLRequest{
			{Table: "d.t", FragmentMasks: map[meta.FragmentID]*dml.Mask{meta.FragmentIDFor(e.sl, 0): bad}},
			{Table: "d.t", TailMasks: map[meta.StreamletID]*dml.Mask{e.sl: bad}},
		} {
			if _, err := e.r.Net.Unary(e.ctx, e.addr, wire.MethodCommitDML, req); !errors.Is(err, sms.ErrBadRequest) {
				t.Errorf("range %v: CommitDML = %v, want ErrBadRequest", rg, err)
			}
		}
	}
	if view, cands := e.fragmentMasks(t); len(view) != 0 || len(cands) != 0 {
		t.Errorf("refused masks were stored: view %v, candidates %v", view, cands)
	}
}
