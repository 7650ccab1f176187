package client_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

// cacheEnv builds a region plus a caching client over a clustered k/v
// table, mirroring the GC lifecycle choreography in internal/sms.
func cacheEnv(t *testing.T) (*core.Region, *client.Client, context.Context) {
	t.Helper()
	r := core.NewRegion(core.DefaultConfig())
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = 32 << 20
	c := r.NewClient(opts)
	ctx := context.Background()
	sc := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		ClusterBy: []string{"k"},
	}
	if err := c.CreateTable(ctx, "d.cache", sc); err != nil {
		t.Fatal(err)
	}
	return r, c, ctx
}

func ingestRound(t *testing.T, ctx context.Context, c *client.Client, base, n int) meta.StreamID {
	t.Helper()
	s, err := c.CreateStream(ctx, "d.cache", meta.Unbuffered)
	if err != nil {
		t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < n; i++ {
		rows = append(rows, schema.NewRow(schema.String("key"), schema.Int64(int64(base+i))))
	}
	if _, err := s.Append(ctx, rows, client.AtOffset(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finalize(ctx); err != nil {
		t.Fatal(err)
	}
	return s.Info().ID
}

// TestReadCacheServesRepeatedScans seals a streamlet and reads it
// twice: the second scan must be served from the cache (hits and bytes
// saved accrue) and return the same rows.
func TestReadCacheServesRepeatedScans(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)

	first, _, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != 30 || len(second) != 30 {
		t.Fatalf("reads returned %d then %d rows, want 30", len(first), len(second))
	}
	st := c.ReadCache().Stats()
	if st.Misses == 0 {
		t.Fatal("first scan should have populated the cache (misses = 0)")
	}
	if st.Hits == 0 || st.BytesSaved == 0 {
		t.Fatalf("second scan should hit: %+v", st)
	}
}

// TestReadCacheInvalidatedByHeartbeatGC proves the no-stale-read
// property for the heartbeat-driven GC path (§5.4.3): once conversion
// retires the WOS fragments and the stream servers delete their files,
// the cached copies must be invalidated — Spanner is MVCC, so an
// old-snapshot read view still lists the GC'd fragments and only
// invalidation stops the cache from serving their bytes forever.
func TestReadCacheInvalidatedByHeartbeatGC(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	streamID := ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)

	// Populate the sealed-WOS cache and capture the pre-conversion
	// snapshot.
	rows, plan, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(rows) != 30 {
		t.Fatalf("pre-GC read: %d rows, err=%v", len(rows), err)
	}
	oldTS := plan.SnapshotTS
	wosPrefix := fragment.Prefix("d.cache", meta.StreamletIDFor(streamID, 0))
	wosPaths, err := r.Colossus.Cluster("alpha").List(wosPrefix)
	if err != nil || len(wosPaths) == 0 {
		t.Fatalf("no WOS files: %v %v", wosPaths, err)
	}
	cached := 0
	for _, p := range wosPaths {
		if c.ReadCache().Contains(p) {
			cached++
		}
	}
	if cached == 0 {
		t.Fatal("sealed WOS fragments were not cached by the first scan")
	}

	// Let the captured snapshot fall strictly before the conversion's
	// commit (oldTS includes +epsilon uncertainty), so the old read view
	// deterministically lists the WOS fragments, not their replacement.
	time.Sleep(12 * time.Millisecond)
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, "d.cache"); err != nil {
		t.Fatal(err)
	}
	// Wait out clock uncertainty, then two full heartbeats: instruct
	// deletion, then ack it (files are gone after the first).
	time.Sleep(12 * time.Millisecond)
	r.HeartbeatAll(ctx, true)
	r.HeartbeatAll(ctx, true)

	st := c.ReadCache().Stats()
	if st.Invalidations == 0 {
		t.Fatal("file GC did not invalidate the cache")
	}
	for _, p := range wosPaths {
		if c.ReadCache().Contains(p) {
			t.Fatalf("GC'd fragment %s still cached", p)
		}
	}
	// A current-snapshot read is served by the ROS generation.
	rows, _, err = c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(rows) != 30 {
		t.Fatalf("post-GC read: %d rows, err=%v", len(rows), err)
	}
	// The old snapshot predates the conversion, so its MVCC read view
	// still lists the WOS fragments — whose files and cache entries are
	// gone. The read must fail with a per-replica file-not-found, never
	// silently serve stale cached bytes.
	_, _, err = c.ReadAll(ctx, "d.cache", oldTS)
	if err == nil {
		t.Fatal("old-snapshot read after file GC must fail, not serve the cache")
	}
	var rre *client.ReplicatedReadError
	if !errors.As(err, &rre) {
		t.Fatalf("old-snapshot read error = %T (%v), want *client.ReplicatedReadError", err, err)
	}
	for _, p := range wosPaths {
		if c.ReadCache().Contains(p) {
			t.Fatalf("old-snapshot read resurrected GC'd fragment %s in the cache", p)
		}
	}
}

// TestReadCacheInvalidatedByGroomerGC proves the same property for the
// groomer path: a forced recluster retires the first ROS generation, a
// grooming cycle deletes its files, and the cached readers for those
// fragments must be dropped.
func TestReadCacheInvalidatedByGroomerGC(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, "d.cache"); err != nil {
		t.Fatal(err)
	}
	// Cache the first ROS generation's readers.
	if rows, _, err := c.ReadAll(ctx, "d.cache", 0); err != nil || len(rows) != 30 {
		t.Fatalf("ROS read: %d rows, err=%v", len(rows), err)
	}
	gen1, _ := r.Colossus.Cluster("alpha").List("ros/d.cache/")
	cachedGen1 := 0
	for _, p := range gen1 {
		if c.ReadCache().Contains(p) {
			cachedGen1++
		}
	}
	if cachedGen1 == 0 {
		t.Fatal("ROS fragments were not cached by the scan")
	}

	// A second overlapping round becomes a delta; the forced recluster
	// retires generation one, and the groomer collects its files.
	ingestRound(t, ctx, c, 100, 10)
	r.HeartbeatAll(ctx, true)
	if _, err := opt.ConvertTable(ctx, "d.cache"); err != nil {
		t.Fatal(err)
	}
	if merged, err := opt.Recluster(ctx, "d.cache", true); err != nil || merged == 0 {
		t.Fatalf("recluster: merged=%d err=%v", merged, err)
	}
	time.Sleep(12 * time.Millisecond)
	addr, err := r.Router().SMSFor("d.cache")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.Net.Unary(ctx, addr, wire.MethodGC, &wire.GCRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(*wire.GCResponse).FragmentsDeleted == 0 {
		t.Fatal("groomer collected nothing after recluster")
	}

	if st := c.ReadCache().Stats(); st.Invalidations == 0 {
		t.Fatal("groomer GC did not invalidate the cache")
	}
	stale := 0
	for _, p := range gen1 {
		if !r.Colossus.Cluster("alpha").Exists(p) && c.ReadCache().Contains(p) {
			stale++
		}
	}
	if stale > 0 {
		t.Fatalf("%d deleted generation-one fragments still cached", stale)
	}
	// The merged generation serves the full row set.
	rows, _, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(rows) != 40 {
		t.Fatalf("post-groom read: %d rows, err=%v", len(rows), err)
	}
}
