package sms_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/sms"
	"vortex/internal/spanner"
	"vortex/internal/wire"
)

// degradeEnv creates d.t with one stream and returns its writable
// streamlet alongside the region handles.
func degradeEnv(t *testing.T) (*core.Region, string, context.Context, meta.StreamID, meta.StreamletInfo) {
	t.Helper()
	r, addr, ctx := env(t)
	if _, err := r.Net.Unary(ctx, addr, wire.MethodCreateTable, &wire.CreateTableRequest{Table: "d.t", Schema: tSchema()}); err != nil {
		t.Fatal(err)
	}
	cs, err := r.Net.Unary(ctx, addr, wire.MethodCreateStream, &wire.CreateStreamRequest{Table: "d.t", Type: meta.Unbuffered})
	if err != nil {
		t.Fatal(err)
	}
	id := cs.(*wire.CreateStreamResponse).Stream.ID
	g, err := r.Net.Unary(ctx, addr, wire.MethodGetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: id})
	if err != nil {
		t.Fatal(err)
	}
	return r, addr, ctx, id, g.(*wire.GetWritableStreamletResponse).Streamlet
}

// streamletRecord reads a streamlet's durable Spanner record directly,
// bypassing every serving-path cache.
func streamletRecord(t *testing.T, r *core.Region, id meta.StreamletID) meta.StreamletInfo {
	t.Helper()
	var sl *meta.StreamletInfo
	if err := r.DB.ReadTxn(func(tx *spanner.Txn) error {
		raw, ok := tx.Get(fmt.Sprintf("streamlets/d.t/%s", id))
		if !ok {
			return fmt.Errorf("streamlet record %s missing", id)
		}
		var err error
		sl, err = meta.UnmarshalStreamlet(raw)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return *sl
}

func TestDegradeStreamletRewritesReplicaSet(t *testing.T) {
	r, addr, ctx, id, sl := degradeEnv(t)
	if sl.Clusters[0] == sl.Clusters[1] {
		t.Fatalf("fresh streamlet already degraded: %v", sl.Clusters)
	}

	// Degrade to a duplicated single-cluster set (§5.6).
	healthy := sl.Clusters[0]
	if _, err := r.Net.Unary(ctx, addr, wire.MethodDegradeStreamlet, &wire.DegradeStreamletRequest{
		Table: "d.t", Stream: id, Streamlet: sl.ID, Clusters: [2]string{healthy, healthy},
	}); err != nil {
		t.Fatal(err)
	}

	// The rewrite is durably visible: the next metadata read of the same
	// writable streamlet reports the narrowed replica set.
	g, err := r.Net.Unary(ctx, addr, wire.MethodGetWritableStreamlet, &wire.GetWritableStreamletRequest{Stream: id})
	if err != nil {
		t.Fatal(err)
	}
	got := g.(*wire.GetWritableStreamletResponse).Streamlet
	if got.ID != sl.ID {
		t.Fatalf("writable streamlet rotated: %s -> %s", sl.ID, got.ID)
	}
	if got.Clusters != [2]string{healthy, healthy} {
		t.Fatalf("Clusters = %v after degrade, want [%s %s]", got.Clusters, healthy, healthy)
	}

	// Unknown streamlets are rejected, not created.
	if _, err := r.Net.Unary(ctx, addr, wire.MethodDegradeStreamlet, &wire.DegradeStreamletRequest{
		Table: "d.t", Stream: id, Streamlet: "s-missing/sl-9", Clusters: [2]string{healthy, healthy},
	}); !errors.Is(err, sms.ErrNotFound) {
		t.Fatalf("degrading unknown streamlet: %v", err)
	}
}

// TestDegradeStreamletConcurrent hammers the same streamlet from many
// callers at once; every RPC must succeed (the handler is an idempotent
// last-writer-wins rewrite under transaction retry) and the surviving
// record must be one of the requested sets, never a torn mix.
func TestDegradeStreamletConcurrent(t *testing.T) {
	r, addr, ctx, id, sl := degradeEnv(t)
	sets := [][2]string{
		{sl.Clusters[0], sl.Clusters[0]},
		{sl.Clusters[1], sl.Clusters[1]},
	}
	const callers = 16
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Net.Unary(ctx, addr, wire.MethodDegradeStreamlet, &wire.DegradeStreamletRequest{
				Table: "d.t", Stream: id, Streamlet: sl.ID, Clusters: sets[i%2],
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent degrade %d: %v", i, err)
		}
	}
	got := streamletRecord(t, r, sl.ID).Clusters
	if got != sets[0] && got != sets[1] {
		t.Fatalf("torn replica set after concurrent degrades: %v", got)
	}
}

// TestDegradeSealedStreamlet pins that degrading a finalized streamlet
// still rewrites its durable replica set: when the owning server seals
// the streamlet while a degrade RPC is in flight, the rewrite must land
// anyway so reconciliation and readers skip the out cluster's stale
// replica — and must not disturb the FINALIZED state or row count.
func TestDegradeSealedStreamlet(t *testing.T) {
	r, addr, ctx, id, sl := degradeEnv(t)
	if _, err := r.Net.Unary(ctx, addr, wire.MethodFinalizeStream, &wire.FinalizeStreamRequest{Stream: id}); err != nil {
		t.Fatal(err)
	}
	sealed := streamletRecord(t, r, sl.ID)
	if sealed.State != meta.StreamletFinalized {
		t.Fatalf("streamlet state after finalize = %v", sealed.State)
	}

	healthy := sl.Clusters[1]
	req := &wire.DegradeStreamletRequest{
		Table: "d.t", Stream: id, Streamlet: sl.ID, Clusters: [2]string{healthy, healthy},
	}
	for i := 0; i < 2; i++ { // twice: the RPC is documented idempotent
		if _, err := r.Net.Unary(ctx, addr, wire.MethodDegradeStreamlet, req); err != nil {
			t.Fatalf("degrade sealed streamlet (attempt %d): %v", i+1, err)
		}
	}
	got := streamletRecord(t, r, sl.ID)
	if got.Clusters != [2]string{healthy, healthy} {
		t.Fatalf("Clusters = %v after degrade of sealed streamlet", got.Clusters)
	}
	if got.State != meta.StreamletFinalized || got.RowCount != sealed.RowCount {
		t.Fatalf("degrade disturbed sealed record: %+v", got)
	}
}

// TestFinalizedRecordAnswersItsServer pins that no heartbeat changes a
// FINALIZED record, and that the record answers a server still writing
// to it: a heartbeat reporting it writable gets it back in
// FinalizedStreamlets, and a degrade gets Finalized (§5.6).
func TestFinalizedRecordAnswersItsServer(t *testing.T) {
	r, addr, ctx, id, sl := degradeEnv(t)
	if _, err := r.Net.Unary(ctx, addr, wire.MethodFinalizeStream, &wire.FinalizeStreamRequest{Stream: id}); err != nil {
		t.Fatal(err)
	}
	sealed := streamletRecord(t, r, sl.ID)
	extra := meta.FragmentInfo{ID: meta.FragmentIDFor(sl.ID, 9), Streamlet: sl.ID, Table: "d.t", Index: 9, Format: meta.WOS, RowCount: 5}
	for _, state := range []meta.StreamletState{meta.StreamletWritable, meta.StreamletFinalized} {
		report := sealed
		report.State = state
		report.RowCount += 5
		resp, err := r.Net.Unary(ctx, addr, wire.MethodHeartbeat, &wire.HeartbeatRequest{
			Server:     sl.Server,
			Streamlets: []wire.StreamletHeartbeat{{Info: report, Fragments: []meta.FragmentInfo{extra}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		listed := slices.Contains(resp.(*wire.HeartbeatResponse).FinalizedStreamlets, sl.ID)
		if listed != (state == meta.StreamletWritable) {
			t.Fatalf("report %v: listed back as finalized = %v", state, listed)
		}
		if got := streamletRecord(t, r, sl.ID); got.State != meta.StreamletFinalized || got.RowCount != sealed.RowCount {
			t.Fatalf("report %v changed the record: %+v", state, got)
		}
		if err := r.DB.ReadTxn(func(tx *spanner.Txn) error {
			if _, ok := tx.Get(fmt.Sprintf("fragments/d.t/%s", extra.ID)); ok {
				return fmt.Errorf("report %v registered fragment %s", state, extra.ID)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := r.Net.Unary(ctx, addr, wire.MethodDegradeStreamlet, &wire.DegradeStreamletRequest{
		Table: "d.t", Stream: id, Streamlet: sl.ID, Clusters: [2]string{sl.Clusters[0], sl.Clusters[0]},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.(*wire.DegradeStreamletResponse).Finalized {
		t.Fatal("degrade of a FINALIZED streamlet did not say so")
	}
}
