package client_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
)

// diskCacheEnv is cacheEnv with the on-disk middle tier enabled. The
// RAM tier is kept deliberately tiny so sealed fragments overflow to
// disk and the fall-through path actually runs.
func diskCacheEnv(t *testing.T, ramBytes int64) (*core.Region, *client.Client, context.Context) {
	t.Helper()
	r, _, ctx := cacheEnv(t)
	opts := client.DefaultOptions()
	opts.ReadCacheBytes = ramBytes
	opts.DiskCacheDir = t.TempDir()
	opts.DiskCacheBytes = 64 << 20
	c := r.NewClient(opts)
	return r, c, ctx
}

// TestSingleflightColdScan is the thundering-herd regression test: N
// concurrent scans of one uncached sealed fragment must together pay
// exactly one Colossus read — the miss fill is singleflighted, the
// losers share the winner's decode.
func TestSingleflightColdScan(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)

	plan, err := c.Plan(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	var sealed *client.Assignment
	for i := range plan.Assignments {
		if a := plan.Assignments[i]; !a.Live && a.Frag.Format == meta.WOS {
			sealed = &plan.Assignments[i]
			break
		}
	}
	if sealed == nil {
		t.Fatal("no sealed WOS assignment in plan")
	}

	const concurrency = 16
	before := r.Colossus.Stats().ReadOps
	var wg sync.WaitGroup
	errs := make([]error, concurrency)
	counts := make([]int, concurrency)
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rows, err := c.Scan(ctx, plan, *sealed)
			errs[i], counts[i] = err, len(rows)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("scan %d: %v", i, errs[i])
		}
		if counts[i] != counts[0] {
			t.Fatalf("scan %d returned %d rows, scan 0 returned %d", i, counts[i], counts[0])
		}
	}
	if got := r.Colossus.Stats().ReadOps - before; got != 1 {
		t.Fatalf("%d concurrent cold scans paid %d Colossus reads, want exactly 1", concurrency, got)
	}

	// Same property for the ROS path, with a cold client so nothing is
	// cached yet.
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, "d.cache"); err != nil {
		t.Fatal(err)
	}
	cold := r.NewClient(func() client.Options {
		o := client.DefaultOptions()
		o.ReadCacheBytes = 32 << 20
		return o
	}())
	plan, err = cold.Plan(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	var rosA *client.Assignment
	for i := range plan.Assignments {
		if a := plan.Assignments[i]; a.Frag.Format == meta.ROS {
			rosA = &plan.Assignments[i]
			break
		}
	}
	if rosA == nil {
		t.Fatal("no ROS assignment after conversion")
	}
	before = r.Colossus.Stats().ReadOps
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = cold.Scan(ctx, plan, *rosA)
		}(i)
	}
	wg.Wait()
	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("ROS scan %d: %v", i, errs[i])
		}
	}
	if got := r.Colossus.Stats().ReadOps - before; got != 1 {
		t.Fatalf("%d concurrent cold ROS scans paid %d Colossus reads, want exactly 1", concurrency, got)
	}
}

// TestDiskTierFallThrough: with a RAM tier too small to hold anything,
// a repeated scan must be served from the disk tier — zero additional
// Colossus reads — and the per-tier counters must say so.
func TestDiskTierFallThrough(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := diskCacheEnv(t, 1) // 1-byte RAM tier: everything oversize
	ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)

	first, _, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(first) != 30 {
		t.Fatalf("cold read: %d rows, err=%v", len(first), err)
	}
	st := c.ReadCache().Stats()
	if st.DiskEntries == 0 {
		t.Fatalf("cold read did not back-fill the disk tier: %+v", st)
	}
	if st.OversizeRejects == 0 {
		t.Fatalf("1-byte RAM tier should reject every fill as oversize: %+v", st)
	}

	before := r.Colossus.Stats().ReadOps
	second, _, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(second) != 30 {
		t.Fatalf("warm read: %d rows, err=%v", len(second), err)
	}
	if got := r.Colossus.Stats().ReadOps - before; got != 0 {
		t.Fatalf("warm read paid %d Colossus reads, want 0 (disk tier)", got)
	}
	st = c.ReadCache().Stats()
	if st.DiskHits == 0 || st.DiskBytesSaved == 0 {
		t.Fatalf("warm read did not hit the disk tier: %+v", st)
	}
}

// TestDiskTierInvalidatedByHeartbeatGC mirrors the RAM-tier no-stale-
// read test for the disk tier: once heartbeat GC deletes the sealed WOS
// files, their disk-tier entries must be unlinked before Invalidate
// returns, and an old-snapshot read must fail rather than be served
// from disk.
func TestDiskTierInvalidatedByHeartbeatGC(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := diskCacheEnv(t, 1) // disk-only in practice: RAM rejects all
	streamID := ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)

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
	tier := c.ReadCache().Disk()
	onDisk := 0
	for _, p := range wosPaths {
		if tier.Contains(p) {
			onDisk++
		}
	}
	if onDisk == 0 {
		t.Fatal("sealed WOS fragments were not spilled to the disk tier")
	}

	time.Sleep(12 * time.Millisecond)
	opt := optimizer.New(optimizer.DefaultConfig(), c, r.Net, r.Router(), r.Colossus, r.Clock)
	if _, err := opt.ConvertTable(ctx, "d.cache"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(12 * time.Millisecond)
	r.HeartbeatAll(ctx, true)
	r.HeartbeatAll(ctx, true)

	st := c.ReadCache().Stats()
	if st.DiskInvalidations == 0 {
		t.Fatalf("file GC did not invalidate the disk tier: %+v", st)
	}
	for _, p := range wosPaths {
		if tier.Contains(p) {
			t.Fatalf("GC'd fragment %s still on disk", p)
		}
	}
	// Current snapshot: served by the ROS generation.
	rows, _, err = c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(rows) != 30 {
		t.Fatalf("post-GC read: %d rows, err=%v", len(rows), err)
	}
	// Old snapshot: its MVCC view lists the GC'd WOS fragments, whose
	// files AND disk-tier entries are gone. Must fail, never serve disk.
	_, _, err = c.ReadAll(ctx, "d.cache", oldTS)
	if err == nil {
		t.Fatal("old-snapshot read after file GC must fail, not serve the disk tier")
	}
	var rre *client.ReplicatedReadError
	if !errors.As(err, &rre) {
		t.Fatalf("old-snapshot read error = %T (%v), want *client.ReplicatedReadError", err, err)
	}
	for _, p := range wosPaths {
		if tier.Contains(p) {
			t.Fatalf("old-snapshot read resurrected GC'd fragment %s on disk", p)
		}
	}
}

// TestPrefetchWarmsDiskTier: prefetching a plan's assignments must fill
// the disk tier so the scans that follow never touch Colossus.
func TestPrefetchWarmsDiskTier(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := diskCacheEnv(t, 1)
	ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)

	plan, err := c.Plan(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	<-c.Prefetch(plan.Assignments)
	st := c.ReadCache().Stats()
	if st.PrefetchFetched == 0 {
		t.Fatalf("prefetch fetched nothing: %+v", st)
	}
	before := r.Colossus.Stats().ReadOps
	rows, _, err := c.ReadAll(ctx, "d.cache", 0)
	if err != nil || len(rows) != 30 {
		t.Fatalf("post-prefetch read: %d rows, err=%v", len(rows), err)
	}
	if got := r.Colossus.Stats().ReadOps - before; got != 0 {
		t.Fatalf("post-prefetch scan paid %d Colossus reads, want 0", got)
	}
	// A second prefetch of the same plan skips every candidate.
	<-c.Prefetch(plan.Assignments)
	if st := c.ReadCache().Stats(); st.PrefetchSkipped == 0 {
		t.Fatalf("re-prefetch did not skip: %+v", st)
	}
}
