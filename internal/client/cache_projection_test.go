package client_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"vortex/internal/client"
	"vortex/internal/meta"
)

// sealedWOSScan returns a plan of d.cache and its one sealed WOS
// assignment.
func sealedWOSScan(t *testing.T, ctx context.Context, c *client.Client) (*client.ScanPlan, client.Assignment) {
	t.Helper()
	plan, err := c.Plan(ctx, "d.cache", 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		if !a.Live && a.Frag.Format == meta.WOS {
			return plan, a
		}
	}
	t.Fatal("no sealed WOS assignment in plan")
	return nil, client.Assignment{}
}

// scanProjected scans a under proj and checks the columns it reads
// against what ingestRound(…, 0, n) wrote: k is "key" and v runs 0..n-1.
func scanProjected(ctx context.Context, c *client.Client, plan *client.ScanPlan, a client.Assignment, proj map[string]bool, n int) (client.CacheStats, error) {
	p := *plan
	p.Projection = proj
	b, err := c.ScanBatch(ctx, &p, a)
	if err != nil {
		return client.CacheStats{}, err
	}
	rows := b.PosRows()
	if len(rows) != n {
		return b.Cache, fmt.Errorf("projection %v: %d rows, want %d", proj, len(rows), n)
	}
	for i, r := range rows {
		k, v := r.Stamped.Row.Values[0], r.Stamped.Row.Values[1]
		if (proj == nil || proj["k"]) && (k.IsNull() || k.AsString() != "key") {
			return b.Cache, fmt.Errorf("projection %v: row %d has k = %v", proj, i, k)
		}
		if (proj == nil || proj["v"]) && (v.IsNull() || v.AsInt64() != int64(i)) {
			return b.Cache, fmt.Errorf("projection %v: row %d has v = %v", proj, i, v)
		}
	}
	return b.Cache, nil
}

// TestWOSEntryWidensForAnotherProjection: a sealed WOS entry decoded for
// one column is never served to a scan that reads another column, or
// every column. That scan counts one miss and its fill decodes the
// columns of both, so from then on both projections hit.
func TestWOSEntryWidensForAnotherProjection(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	onlyK := map[string]bool{"k": true}
	for _, tc := range []struct {
		name  string
		later map[string]bool
	}{{"another column", map[string]bool{"v": true}}, {"every column", nil}} {
		later := tc.later
		t.Run(tc.name, func(t *testing.T) {
			r, c, ctx := cacheEnv(t)
			ingestRound(t, ctx, c, 0, 30)
			r.HeartbeatAll(ctx, false)
			plan, a := sealedWOSScan(t, ctx, c)
			miss, hit := client.CacheStats{Misses: 1}, func(st client.CacheStats) bool { return st.Hits == 1 && st.Misses == 0 }
			for i, step := range []struct {
				proj map[string]bool
				miss bool
			}{
				{onlyK, true}, // cold
				{onlyK, false},
				{later, true}, // widens the entry
				{later, false},
				{onlyK, false},
			} {
				use, err := scanProjected(ctx, c, plan, a, step.proj, 30)
				if err != nil {
					t.Fatalf("scan %d: %v", i, err)
				}
				if step.miss && use != miss || !step.miss && !hit(use) {
					t.Fatalf("scan %d of %v: cache %+v, want a miss: %v", i, step.proj, use, step.miss)
				}
			}
			if st := c.ReadCache().Stats(); st.Misses != 2 || st.Hits != 3 || st.Entries != 1 {
				t.Fatalf("cache %+v, want 2 misses, 3 hits, 1 entry", st)
			}
		})
	}
}

// TestProjectionsRaceOnOnePath: scans of different projections racing
// on one cold sealed WOS file each get the columns they read, whichever
// fill they join. Run it under -race.
func TestProjectionsRaceOnOnePath(t *testing.T) {
	if testing.Short() {
		t.Skip("cache e2e")
	}
	r, c, ctx := cacheEnv(t)
	ingestRound(t, ctx, c, 0, 30)
	r.HeartbeatAll(ctx, false)
	plan, a := sealedWOSScan(t, ctx, c)
	projections := []map[string]bool{{"k": true}, {"v": true}, nil, {"v": true}}
	for round := 0; round < 20; round++ {
		c.ReadCache().Invalidate(a.Frag.Path)
		var wg sync.WaitGroup
		for _, proj := range projections {
			wg.Add(1)
			go func(proj map[string]bool) {
				defer wg.Done()
				if _, err := scanProjected(ctx, c, plan, a, proj, 30); err != nil {
					t.Errorf("round %d: %v", round, err)
				}
			}(proj)
		}
		wg.Wait()
	}
}
