// Package core wires the Vortex subsystems into a running region: two or
// more Colossus clusters, a regional Spanner database, a pool of SMS
// tasks sharded by Slicer, a pool of Stream Servers per cluster, and the
// placement logic that assigns streamlets to servers by load and health
// (§5.2, §5.3). This is the paper's "BigQuery region" in one process.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"vortex/internal/bigmeta"
	"vortex/internal/blockenc"
	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/latencymodel"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/slicer"
	"vortex/internal/sms"
	"vortex/internal/spanner"
	"vortex/internal/streamserver"
	"vortex/internal/truetime"
)

// Config sizes a region.
type Config struct {
	// Clusters names the Borg/Colossus clusters (≥2, §5.1).
	Clusters []string
	// SMSTasks is the number of control-plane tasks (§5.2.1).
	SMSTasks int
	// StreamServersPerCluster sizes the data plane (§5.3).
	StreamServersPerCluster int
	// Latency is the injected latency profile (zero for tests).
	Latency latencymodel.Profile
	// Seed makes latency sampling deterministic.
	Seed int64
	// ClockEpsilon is the TrueTime uncertainty (default ±4ms).
	ClockEpsilon time.Duration
	// Clock, when non-nil, replaces the region's system TrueTime clock.
	// Deterministic simulation injects a truetime.Manual here so that all
	// commit timestamps, visibility decisions and retention horizons are
	// functions of simulated time only.
	Clock truetime.Clock
	// MaxFragmentBytes overrides the fragment rotation size.
	MaxFragmentBytes int64
	// Chaos, when non-nil, is the fault-injection schedule wired through
	// every subsystem (transport, Colossus, Stream Servers) and granted
	// crash/restart authority over individual tasks.
	Chaos *chaos.Schedule
	// Quotas installs ingestion admission control on every SMS task; the
	// zero value disables it.
	Quotas sms.Quotas
	// HeartbeatCoalesce / HeartbeatMaxStreamlets configure heartbeat
	// batching on every Stream Server (see streamserver.Config).
	HeartbeatCoalesce      time.Duration
	HeartbeatMaxStreamlets int
}

// DefaultConfig returns a two-cluster region with a small server pool.
func DefaultConfig() Config {
	return Config{
		Clusters:                []string{"alpha", "beta"},
		SMSTasks:                2,
		StreamServersPerCluster: 3,
		ClockEpsilon:            4 * time.Millisecond,
	}
}

// Region is a running single-process Vortex region.
type Region struct {
	Colossus *colossus.Region
	DB       *spanner.DB
	Net      *rpc.Network
	Clock    truetime.Clock
	Keyring  *blockenc.Keyring
	Slicer   *slicer.Slicer

	SMSTasks      []*sms.Task
	StreamServers map[string]*streamserver.Server // by address
	BigMeta       *bigmeta.Index
	ReadSessions  *readsession.Server

	placer *sms.Placer
	router *router
	chaos  *chaos.Schedule
	cfg    Config

	mu sync.Mutex
	// readCaches are the client fragment caches registered for GC-driven
	// invalidation; every file-deletion hook fans out to all of them.
	readCaches []*client.ReadCache
	// rebalancedKeys counts Slicer keys moved by RebalanceSMS.
	rebalancedKeys int64
}

// NewRegion builds and starts a region.
func NewRegion(cfg Config) *Region {
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
	clock := cfg.Clock
	if clock == nil {
		clock = truetime.NewSystem(cfg.ClockEpsilon, 0)
	}
	var sampler *latencymodel.Sampler
	if !cfg.Latency.Zero() {
		sampler = latencymodel.NewSampler(cfg.Latency, cfg.Seed)
	}
	r := &Region{
		Colossus:      colossus.NewRegion(cfg.Clusters...),
		DB:            spanner.NewDB(clock),
		Net:           rpc.NewNetwork(sampler),
		Clock:         clock,
		Keyring:       blockenc.NewKeyring(),
		Slicer:        slicer.New(nil),
		StreamServers: make(map[string]*streamserver.Server),
	}
	if sampler != nil {
		r.Colossus.SetSampler(sampler)
	}
	r.placer = sms.NewPlacer(cfg.Clusters)
	r.router = &router{slicer: r.Slicer}
	r.BigMeta = bigmeta.NewIndex()

	for i := 0; i < cfg.SMSTasks; i++ {
		addr := fmt.Sprintf("sms-%d", i)
		task := sms.New(addr, r.DB, r.Net, r.placer)
		task.SetColossus(r.Colossus)
		task.SetFragmentListener(r.BigMeta)
		task.SetFileGCListener(r)
		if !cfg.Quotas.Unlimited() {
			task.SetQuotas(cfg.Quotas)
		}
		r.SMSTasks = append(r.SMSTasks, task)
		r.Slicer.AddTask(addr)
	}
	for _, cl := range cfg.Clusters {
		for i := 0; i < cfg.StreamServersPerCluster; i++ {
			addr := fmt.Sprintf("ss-%s-%d", cl, i)
			sscfg := streamserver.DefaultConfig(addr)
			if cfg.MaxFragmentBytes > 0 {
				sscfg.MaxFragmentBytes = cfg.MaxFragmentBytes
			}
			sscfg.HeartbeatCoalesce = cfg.HeartbeatCoalesce
			sscfg.HeartbeatMaxStreamlets = cfg.HeartbeatMaxStreamlets
			srv := streamserver.New(sscfg, r.Colossus, clock, r.Keyring, r.router, r.Net)
			srv.SetFileDeleteObserver(r.FragmentFilesDeleted)
			r.StreamServers[addr] = srv
			r.placer.AddServer(addr, cl)
		}
	}
	r.cfg = cfg
	// The read-session service runs as its own task with an internal
	// scan client: a cached leaf-scan substrate shared by every session
	// (the Storage Read API's server-side Dremel shards, in miniature).
	rsOpts := client.DefaultOptions()
	rsOpts.ReadCacheBytes = 32 << 20
	r.ReadSessions = readsession.NewServer(readsession.DefaultAddr, r.NewClient(rsOpts), r.BigMeta, clock)
	if cfg.Chaos != nil {
		r.installChaos(cfg.Chaos)
	}
	return r
}

// installChaos threads one schedule through every failure surface and
// gives it crash authority over individual tasks.
func (r *Region) installChaos(s *chaos.Schedule) {
	r.chaos = s
	r.Net.SetChaos(s)
	r.Colossus.SetChaos(s)
	for _, srv := range r.StreamServers {
		srv.SetChaos(s)
	}
	r.placer.SetChaos(s)
	s.OnCrash(chaos.KindStreamServer, r.CrashStreamServer)
	s.OnCrash(chaos.KindSMS, r.CrashSMSTask)
}

// Chaos returns the region's fault-injection schedule (nil when none).
func (r *Region) Chaos() *chaos.Schedule { return r.chaos }

// NewClient returns a client bound to this region. A client opened with
// a read cache is automatically registered for GC invalidation.
func (r *Region) NewClient(opts client.Options) *client.Client {
	c := client.New(r.Net, r.router, r.Colossus, r.Keyring, r.Clock, opts)
	if rc := c.ReadCache(); rc != nil {
		r.RegisterReadCache(rc)
	}
	return c
}

// RegisterReadCache subscribes a client read cache to the region's
// fragment file-deletion events (SMS groomer and heartbeat-driven
// Stream Server GC).
func (r *Region) RegisterReadCache(rc *client.ReadCache) {
	if rc == nil {
		return
	}
	r.mu.Lock()
	r.readCaches = append(r.readCaches, rc)
	r.mu.Unlock()
}

// FragmentFilesDeleted implements sms.FileGCListener (and receives the
// Stream Servers' GC callbacks): fragment files are physically gone, so
// no registered cache may serve their bytes again.
func (r *Region) FragmentFilesDeleted(paths []string) {
	r.mu.Lock()
	caches := append([]*client.ReadCache(nil), r.readCaches...)
	r.mu.Unlock()
	for _, rc := range caches {
		rc.Invalidate(paths...)
	}
}

// Router exposes the table→SMS routing (used by tools and the optimizer).
func (r *Region) Router() client.Router { return r.router }

// HeartbeatAll drives one heartbeat round on every live Stream Server —
// the simulation's stand-in for the paper's periodic heartbeats (§5.5).
// Servers are visited in address order so that heartbeat side effects
// (placement load reports, fragment GC) happen in a replayable order.
func (r *Region) HeartbeatAll(ctx context.Context, full bool) {
	for _, addr := range r.ServerAddrs() {
		r.mu.Lock()
		s := r.StreamServers[addr]
		r.mu.Unlock()
		if s != nil {
			_ = s.HeartbeatNow(ctx, full)
		}
	}
}

// ServerAddrs returns all Stream Server addresses in sorted order.
func (r *Region) ServerAddrs() []string {
	r.mu.Lock()
	addrs := make([]string, 0, len(r.StreamServers))
	for a := range r.StreamServers {
		addrs = append(addrs, a)
	}
	r.mu.Unlock()
	sort.Strings(addrs)
	return addrs
}

// SMSAddrs returns all SMS task addresses in sorted order.
func (r *Region) SMSAddrs() []string {
	addrs := make([]string, 0, len(r.SMSTasks))
	for _, t := range r.SMSTasks {
		addrs = append(addrs, t.Addr())
	}
	sort.Strings(addrs)
	return addrs
}

// CrashStreamServer simulates a hard Stream Server crash.
func (r *Region) CrashStreamServer(addr string) {
	r.mu.Lock()
	srv := r.StreamServers[addr]
	r.mu.Unlock()
	if srv != nil {
		srv.Crash()
		r.placer.SetDead(addr, true)
	}
}

// RestartStreamServer brings a crashed Stream Server back at the same
// address as a fresh task: empty streamlet map, same durable fragments
// in Colossus. Ownership of its old streamlets is re-established only
// through the usual SMS instruct path — exactly a Borg reschedule.
func (r *Region) RestartStreamServer(addr string) *streamserver.Server {
	sscfg := streamserver.DefaultConfig(addr)
	if r.cfg.MaxFragmentBytes > 0 {
		sscfg.MaxFragmentBytes = r.cfg.MaxFragmentBytes
	}
	sscfg.HeartbeatCoalesce = r.cfg.HeartbeatCoalesce
	sscfg.HeartbeatMaxStreamlets = r.cfg.HeartbeatMaxStreamlets
	srv := streamserver.New(sscfg, r.Colossus, r.Clock, r.Keyring, r.router, r.Net)
	srv.SetFileDeleteObserver(r.FragmentFilesDeleted)
	if r.chaos != nil {
		srv.SetChaos(r.chaos)
	}
	r.mu.Lock()
	r.StreamServers[addr] = srv
	r.mu.Unlock()
	r.placer.SetDead(addr, false)
	return srv
}

// CrashSMSTask simulates losing an SMS task: its handlers leave the
// network, in-flight calls to it fail, and its durable state stays in
// Spanner (§5.2 — control-plane tasks hold no unrecoverable state).
func (r *Region) CrashSMSTask(addr string) {
	r.Net.Deregister(addr)
}

// RestartSMSTask resumes a crashed SMS task at the same address.
func (r *Region) RestartSMSTask(addr string) {
	for _, t := range r.SMSTasks {
		if t.Addr() == addr {
			t.Register()
			return
		}
	}
}

// SetQuotas installs admission-control quotas on every SMS task.
func (r *Region) SetQuotas(q sms.Quotas) {
	for _, t := range r.SMSTasks {
		t.SetQuotas(q)
	}
}

// IngestStats aggregates the region's overload-protection counters:
// admission decisions across SMS tasks and shed/heartbeat counters
// across Stream Servers.
type IngestStats struct {
	Admission sms.AdmissionStats
	// ShedAppends counts data-plane appends rejected under a shed
	// instruction, summed over servers.
	ShedAppends int64
	// HeartbeatsSent / HeartbeatsCoalesced sum the servers' heartbeat
	// round counters.
	HeartbeatsSent      int64
	HeartbeatsCoalesced int64
	// RebalancedKeys counts Slicer keys moved by load rebalancing, and
	// OpenStaleWindows the double-assignment windows currently open.
	RebalancedKeys   int64
	OpenStaleWindows int
}

// IngestStats snapshots the region's overload-protection counters.
func (r *Region) IngestStats() IngestStats {
	var out IngestStats
	for _, t := range r.SMSTasks {
		s := t.AdmissionStats()
		out.Admission.StreamletsAdmitted += s.StreamletsAdmitted
		out.Admission.StreamletsShed += s.StreamletsShed
		out.Admission.BytesDebited += s.BytesDebited
		out.Admission.TableSheds += s.TableSheds
	}
	r.mu.Lock()
	servers := make([]*streamserver.Server, 0, len(r.StreamServers))
	for _, srv := range r.StreamServers {
		servers = append(servers, srv)
	}
	rebalanced := r.rebalancedKeys
	r.mu.Unlock()
	for _, srv := range servers {
		st := srv.Stats()
		out.ShedAppends += st.ShedAppends
		out.HeartbeatsSent += st.HeartbeatsSent
		out.HeartbeatsCoalesced += st.HeartbeatsCoalesced
	}
	out.RebalancedKeys = rebalanced
	out.OpenStaleWindows = len(r.Slicer.StaleOwners())
	return out
}

// RebalanceSMS runs one load-driven Slicer rebalance round, moving at
// most maxMoves hot table keys between SMS tasks and leaving each moved
// key's previous owner in the deliberate double-assignment window until
// SettleSlicer. Returns the moved keys.
func (r *Region) RebalanceSMS(maxMoves int) []string {
	moved := r.Slicer.RebalanceByLoad(maxMoves)
	r.mu.Lock()
	r.rebalancedKeys += int64(len(moved))
	r.mu.Unlock()
	return moved
}

// SettleSlicer closes every open Slicer reassignment window (the moment
// the stale task observes the new assignment).
func (r *Region) SettleSlicer() {
	r.Slicer.SettleAll()
}

// RunHeartbeats starts a background heartbeat loop until ctx ends.
func (r *Region) RunHeartbeats(ctx context.Context, every time.Duration) {
	go func() {
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		n := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				n++
				r.HeartbeatAll(ctx, n%10 == 0) // periodic full snapshot (§5.4.3)
			}
		}
	}()
}

// router implements client.Router / streamserver.Router via Slicer.
type router struct {
	slicer *slicer.Slicer
}

// SMSFor returns the SMS task responsible for the table. Every lookup
// counts as one unit of observed key load — the signal Slicer's
// load-driven rebalancing moves hot tables by (§5.2.1).
func (rt *router) SMSFor(table meta.TableID) (string, error) {
	key := "table:" + string(table)
	addr, err := rt.slicer.Lookup(key)
	if err == nil {
		rt.slicer.RecordKeyLoad(key, 1)
	}
	return addr, err
}
