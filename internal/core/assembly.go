package core

// The one assembly of a region's tasks. NewRegion starts every task on
// the in-memory network in one process; over TCP a cluster coordinator
// starts the control plane and each worker its Stream Servers
// (internal/clusterd). Both call the constructors in this file, and so
// do the restart paths, so no two of them can wire a task differently.
// This file is also the one place that lays out task addresses and
// decides which heartbeat round is a full one (scripts/check.sh).

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"vortex/internal/bigmeta"
	"vortex/internal/blockenc"
	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/colossusrpc"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/sms"
	"vortex/internal/spanner"
	"vortex/internal/streamserver"
	"vortex/internal/truetime"
)

// withDefaults fills cfg's unset shape: two clusters, two SMS tasks,
// three Stream Servers per cluster, ±4ms of clock uncertainty.
func (cfg Config) withDefaults() Config {
	if len(cfg.Clusters) < 2 {
		cfg.Clusters = []string{"alpha", "beta"}
	}
	if cfg.SMSTasks <= 0 {
		cfg.SMSTasks = 2
	}
	if cfg.StreamServersPerCluster <= 0 {
		cfg.StreamServersPerCluster = 3
	}
	if cfg.ClockEpsilon <= 0 {
		cfg.ClockEpsilon = 4 * time.Millisecond
	}
	return cfg
}

// Task addresses are logical: the same in one process and over TCP,
// where a route table maps each to a host:port.

// SMSAddr is the address of SMS task i.
func SMSAddr(i int) string { return fmt.Sprintf("sms-%d", i) }

// ServerSpec names one Stream Server task and the Colossus cluster it
// considers home (its first write replica).
type ServerSpec struct {
	Addr    string
	Cluster string
}

// serverSpec lays out a Stream Server of cluster: ss-<cluster>-<suffix>.
func serverSpec(cluster, suffix string) ServerSpec {
	return ServerSpec{Addr: "ss-" + cluster + "-" + suffix, Cluster: cluster}
}

// ParseServerSpec recovers a Stream Server's home cluster from its
// address.
func ParseServerSpec(addr string) (ServerSpec, error) {
	rest, ok := strings.CutPrefix(addr, "ss-")
	cluster, suffix, _ := strings.Cut(rest, "-")
	if !ok || cluster == "" || suffix == "" {
		return ServerSpec{}, fmt.Errorf("stream server addr %q does not follow ss-<cluster>-<suffix>", addr)
	}
	return ServerSpec{Addr: addr, Cluster: cluster}, nil
}

// servers lays out the region's Stream Servers, cluster by cluster:
// ss-<cluster>-<i>.
func (cfg Config) servers() []ServerSpec {
	var specs []ServerSpec
	for _, cl := range cfg.Clusters {
		for i := 0; i < cfg.StreamServersPerCluster; i++ {
			specs = append(specs, serverSpec(cl, fmt.Sprint(i)))
		}
	}
	return specs
}

// WorkerServers lays out the n Stream Servers of cluster worker w, all
// in one home cluster like a Borg cell: ss-<cluster>-w<w>-<j>.
func WorkerServers(cluster string, w, n int) []ServerSpec {
	specs := make([]ServerSpec, n)
	for j := range specs {
		specs[j] = serverSpec(cluster, fmt.Sprintf("w%d-%d", w, j))
	}
	return specs
}

// ControlAddrs lists the addresses of a control plane with smsTasks SMS
// tasks — the Colossus proxy, the read-session service and the SMS
// tasks — which a cluster coordinator serves.
func ControlAddrs(smsTasks int) []string {
	addrs := []string{colossusrpc.DefaultAddr, readsession.DefaultAddr}
	for i := 0; i < smsTasks; i++ {
		addrs = append(addrs, SMSAddr(i))
	}
	return addrs
}

// Topology returns the fault surfaces of the region cfg describes.
func (cfg Config) Topology() chaos.Topology {
	cfg = cfg.withDefaults()
	t := chaos.Topology{Clusters: cfg.Clusters}
	for _, s := range cfg.servers() {
		t.Servers = append(t.Servers, s.Addr)
	}
	for i := 0; i < cfg.SMSTasks; i++ {
		t.SMS = append(t.SMS, SMSAddr(i))
	}
	return t
}

// Host is what the tasks one process runs are built on: the transport
// they serve on, Colossus as this process reaches it, the clock, the
// keyring and the table→SMS routing. It fans fragment-file deletions
// out to the read caches registered with it. A Region is one Host on
// the in-memory network; each cluster node makes its own over TCP.
type Host struct {
	net     rpc.Transport
	store   colossus.Store
	clock   truetime.Clock
	keyring *blockenc.Keyring
	router  client.Router
	cfg     Config

	mu sync.Mutex
	// readCaches are the client fragment caches registered for GC-driven
	// invalidation; every file-deletion hook fans out to all of them.
	readCaches []*client.ReadCache
}

// NewHost returns a host for the region cfg describes, with cfg's
// clock, or a system TrueTime clock of cfg's uncertainty.
func NewHost(cfg Config, net rpc.Transport, store colossus.Store, keyring *blockenc.Keyring, router client.Router) *Host {
	cfg = cfg.withDefaults()
	clock := cfg.Clock
	if clock == nil {
		clock = truetime.NewSystem(cfg.ClockEpsilon, 0)
	}
	return &Host{net: net, store: store, clock: clock, keyring: keyring, router: router, cfg: cfg}
}

// NewClient returns a client of this host. A client opened with a read
// cache is registered for GC invalidation.
func (h *Host) NewClient(opts client.Options) *client.Client {
	c := client.New(h.net, h.router, h.store, h.keyring, h.clock, opts)
	h.RegisterReadCache(c.ReadCache())
	return c
}

// RegisterReadCache subscribes a client read cache to the host's
// fragment file-deletion events (SMS groomer and heartbeat-driven
// Stream Server GC).
func (h *Host) RegisterReadCache(rc *client.ReadCache) {
	if rc == nil {
		return
	}
	h.mu.Lock()
	h.readCaches = append(h.readCaches, rc)
	h.mu.Unlock()
}

// FragmentFilesDeleted implements sms.FileGCListener (and receives the
// Stream Servers' GC callbacks): fragment files are physically gone, so
// no registered cache may serve their bytes again.
func (h *Host) FragmentFilesDeleted(paths []string) {
	h.mu.Lock()
	caches := append([]*client.ReadCache(nil), h.readCaches...)
	h.mu.Unlock()
	for _, rc := range caches {
		rc.Invalidate(paths...)
	}
}

// ControlPlane is a region's durable substrate and control plane (§5.2,
// §6.2): Colossus, the Spanner database, the SMS task pool with the
// placer over the Stream Servers, the Big Metadata index and the
// read-session service.
type ControlPlane struct {
	Colossus     *colossus.Region
	DB           *spanner.DB
	SMSTasks     []*sms.Task
	BigMeta      *bigmeta.Index
	ReadSessions *readsession.Server

	placer *sms.Placer
}

// StartControlPlane starts the control plane over region on h, placing
// streamlets on servers. Every SMS task reports committed fragment
// changes to Big Metadata and the files its groomer deletes to h's read
// caches. The read-session service runs as its own task with an
// internal scan client: a cached leaf-scan substrate shared by every
// session (the Storage Read API's server-side Dremel shards, in
// miniature), whose cache h invalidates like any other.
func StartControlPlane(h *Host, region *colossus.Region, servers []ServerSpec) *ControlPlane {
	cp := &ControlPlane{
		Colossus: region,
		DB:       spanner.NewDB(h.clock),
		BigMeta:  bigmeta.NewIndex(),
		placer:   sms.NewPlacer(h.cfg.Clusters),
	}
	for _, s := range servers {
		cp.placer.AddServer(s.Addr, s.Cluster)
	}
	for i := 0; i < h.cfg.SMSTasks; i++ {
		task := sms.New(SMSAddr(i), cp.DB, h.net, cp.placer)
		task.SetColossus(region)
		task.SetFragmentListener(cp.BigMeta)
		task.SetFileGCListener(h)
		if !h.cfg.Quotas.Unlimited() {
			task.SetQuotas(h.cfg.Quotas)
		}
		cp.SMSTasks = append(cp.SMSTasks, task)
	}
	rsOpts := client.DefaultOptions()
	rsOpts.ReadCacheBytes = 32 << 20
	cp.ReadSessions = readsession.NewServer(readsession.DefaultAddr, h.NewClient(rsOpts), cp.BigMeta, h.clock)
	return cp
}

// StartStreamServer starts the Stream Server at addr on h, with the
// region's fragment size, heartbeat batching and chaos schedule. The
// files it deletes invalidate h's read caches.
func StartStreamServer(h *Host, addr string) *streamserver.Server {
	srv := streamserver.New(streamserver.Config{
		Addr:                   addr,
		MaxFragmentBytes:       h.cfg.MaxFragmentBytes,
		HeartbeatCoalesce:      h.cfg.HeartbeatCoalesce,
		HeartbeatMaxStreamlets: h.cfg.HeartbeatMaxStreamlets,
	}, h.store, h.clock, h.keyring, h.router, h.net)
	srv.SetFileDeleteObserver(h.FragmentFilesDeleted)
	if h.cfg.Chaos != nil {
		srv.SetChaos(h.cfg.Chaos)
	}
	return srv
}

// FullHeartbeat reports whether heartbeat round n (counted from 1) is a
// full snapshot rather than a delta: every tenth is (§5.4.3).
func FullHeartbeat(n int) bool { return n%10 == 0 }

// StartHeartbeats runs round once per interval of length every until
// ctx ends, telling it whether the round is a full one. The returned
// channel closes when the loop has stopped.
func StartHeartbeats(ctx context.Context, every time.Duration, round func(ctx context.Context, full bool)) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for n := 1; ; n++ {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				round(ctx, FullHeartbeat(n))
			}
		}
	}()
	return done
}
