package clusterd

import (
	"context"
	"testing"
	"time"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/optimizer"
	"vortex/internal/readsession"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

// gcCluster is a TCP cluster with one two-column table and the steps
// the file-GC tests share.
type gcCluster struct {
	*tcpCluster
	t     *testing.T
	ctx   context.Context
	table meta.TableID
}

func startGCCluster(t *testing.T, table meta.TableID) *gcCluster {
	tc := startTCPCluster(t, client.DefaultOptions())
	g := &gcCluster{tcpCluster: tc, t: t, ctx: context.Background(), table: table}
	sc := &schema.Schema{
		Fields: []*schema.Field{
			{Name: "k", Kind: schema.KindString, Mode: schema.Required},
			{Name: "v", Kind: schema.KindInt64, Mode: schema.Nullable},
		},
		ClusterBy: []string{"k"},
	}
	if err := tc.client.CreateTable(g.ctx, table, sc); err != nil {
		t.Fatal(err)
	}
	return g
}

func (g *gcCluster) heartbeat(full bool) {
	for _, srv := range g.worker.Servers {
		if err := srv.HeartbeatNow(g.ctx, full); err != nil {
			g.t.Fatal(err)
		}
	}
}

// ingest writes n rows through one finalized stream.
func (g *gcCluster) ingest(base, n int) {
	s, err := g.client.CreateStream(g.ctx, g.table, meta.Unbuffered)
	if err != nil {
		g.t.Fatal(err)
	}
	var rows []schema.Row
	for i := 0; i < n; i++ {
		rows = append(rows, schema.NewRow(schema.String("key"), schema.Int64(int64(base+i))))
	}
	if _, err := s.Append(g.ctx, rows, client.AtOffset(0)); err != nil {
		g.t.Fatal(err)
	}
	if _, err := s.Finalize(g.ctx); err != nil {
		g.t.Fatal(err)
	}
	g.heartbeat(true)
}

// readSession reads the table through the coordinator's read-session
// service, which caches the files it scans.
func (g *gcCluster) readSession(want int) {
	g.t.Helper()
	sess, err := readsession.Dial(g.client, "").Open(g.ctx, g.table, readsession.Options{SnapshotTS: g.clock.Now().Latest})
	if err != nil {
		g.t.Fatal(err)
	}
	rows, err := sess.ReadAll(g.ctx)
	if err != nil || len(rows) != want {
		g.t.Fatalf("read session: %d rows, err=%v; want %d", len(rows), err, want)
	}
	if err := sess.Close(g.ctx); err != nil {
		g.t.Fatal(err)
	}
}

// cachedFiles lists the files under prefix in alpha and fails unless
// the coordinator's read-session cache holds at least one of them.
func (g *gcCluster) cachedFiles(prefix string) []string {
	g.t.Helper()
	paths, err := g.coord.Region.Cluster("alpha").List(prefix)
	if err != nil || len(paths) == 0 {
		g.t.Fatalf("no files under %s: %v %v", prefix, paths, err)
	}
	for _, p := range paths {
		if g.coord.ReadSessions.ReadCache().Contains(p) {
			return paths
		}
	}
	g.t.Fatalf("the read session cached no file under %s", prefix)
	return nil
}

// checkEvicted fails if a deleted file of paths is still in the
// coordinator's read-session cache, or if none of them was deleted.
func (g *gcCluster) checkEvicted(paths []string) {
	g.t.Helper()
	gone := 0
	for _, p := range paths {
		if g.coord.Region.Cluster("alpha").Exists(p) {
			continue
		}
		gone++
		if g.coord.ReadSessions.ReadCache().Contains(p) {
			g.t.Errorf("collected fragment %s still in the coordinator's read-session cache", p)
		}
	}
	if gone == 0 {
		g.t.Fatal("no file was collected")
	}
}

// TestGroomerInvalidatesCoordinatorReadSessionCache is the cluster-mode
// twin of client.TestReadCacheInvalidatedByGroomerGC: a forced recluster
// retires a ROS generation the coordinator's read-session service has
// cached, and once the groomer deletes its files no path of it may stay
// in that service's cache, or an old-snapshot session would be served
// bytes Colossus no longer holds.
func TestGroomerInvalidatesCoordinatorReadSessionCache(t *testing.T) {
	g := startGCCluster(t, "t.groom")
	opt := optimizer.New(optimizer.DefaultConfig(), g.client, g.clientTr, Router(2), g.coord.Region, g.clock)
	g.ingest(0, 30)
	if _, err := opt.ConvertTable(g.ctx, g.table); err != nil {
		t.Fatal(err)
	}
	g.readSession(30)
	gen1 := g.cachedFiles("ros/" + string(g.table) + "/")

	// A second overlapping round becomes a delta; the forced recluster
	// retires generation one, and the groomer collects its files.
	g.ingest(100, 10)
	if _, err := opt.ConvertTable(g.ctx, g.table); err != nil {
		t.Fatal(err)
	}
	if merged, err := opt.Recluster(g.ctx, g.table, true); err != nil || merged == 0 {
		t.Fatalf("recluster: merged=%d err=%v", merged, err)
	}
	time.Sleep(12 * time.Millisecond) // deletions older than the clock's uncertainty
	addr, err := Router(2).SMSFor(g.table)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.GC.Call(g.ctx, g.clientTr, addr, &wire.GCRequest{Retention: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.FragmentsDeleted == 0 {
		t.Fatal("groomer collected nothing after recluster")
	}
	g.checkEvicted(gen1)
	g.readSession(40)
}

// TestHeartbeatGCInvalidatesCoordinatorReadSessionCache: a worker's
// Stream Server deletes the sealed WOS files of a converted streamlet
// on the SMS's heartbeat instruction. Its own file-delete observer
// reaches only the worker's process, so the coordinator's read-session
// cache must hear of the deletion from the SMS, through the acks.
func TestHeartbeatGCInvalidatesCoordinatorReadSessionCache(t *testing.T) {
	g := startGCCluster(t, "t.wos")
	g.ingest(0, 30)
	g.readSession(30)
	wos := g.cachedFiles("wos/" + string(g.table) + "/")

	opt := optimizer.New(optimizer.DefaultConfig(), g.client, g.clientTr, Router(2), g.coord.Region, g.clock)
	if _, err := opt.ConvertTable(g.ctx, g.table); err != nil {
		t.Fatal(err)
	}
	time.Sleep(12 * time.Millisecond) // deletions older than the clock's uncertainty
	// One round instructs the deletion, the next acks it.
	for i := 0; i < 3; i++ {
		g.heartbeat(true)
	}
	g.checkEvicted(wos)
	g.readSession(30)
}
