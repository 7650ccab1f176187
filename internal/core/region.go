// Package core wires the Vortex subsystems into a running region: two or
// more Colossus clusters, a regional Spanner database, a pool of SMS
// tasks sharded by Slicer, a pool of Stream Servers per cluster, and the
// placement logic that assigns streamlets to servers by load and health
// (§5.2, §5.3). This is the paper's "BigQuery region" in one process.
// The constructors it starts each task with (assembly.go) also start the
// same tasks as cluster processes over TCP (internal/clusterd).
package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/latencymodel"
	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/slicer"
	"vortex/internal/sms"
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
func DefaultConfig() Config { return Config{}.withDefaults() }

// Region is a running single-process Vortex region.
type Region struct {
	*ControlPlane
	Net     *rpc.Network
	Clock   truetime.Clock
	Keyring *blockenc.Keyring
	Slicer  *slicer.Slicer

	StreamServers map[string]*streamserver.Server // by address

	host   *Host
	router *router

	mu sync.Mutex
	// rebalancedKeys counts Slicer keys moved by RebalanceSMS.
	rebalancedKeys int64
}

// NewRegion builds and starts a region.
func NewRegion(cfg Config) *Region {
	cfg = cfg.withDefaults()
	var sampler *latencymodel.Sampler
	if !cfg.Latency.Zero() {
		sampler = latencymodel.NewSampler(cfg.Latency, cfg.Seed)
	}
	col := colossus.NewRegion(cfg.Clusters...)
	if sampler != nil {
		col.SetSampler(sampler)
	}
	r := &Region{
		Net:           rpc.NewNetwork(sampler),
		Keyring:       blockenc.NewKeyring(),
		Slicer:        slicer.New(nil),
		StreamServers: make(map[string]*streamserver.Server),
	}
	r.router = &router{slicer: r.Slicer}
	r.host = NewHost(cfg, r.Net, col, r.Keyring, r.router)
	r.Clock = r.host.clock
	servers := cfg.servers()
	r.ControlPlane = StartControlPlane(r.host, col, servers)
	for _, t := range r.SMSTasks {
		r.Slicer.AddTask(t.Addr())
	}
	for _, s := range servers {
		r.StreamServers[s.Addr] = StartStreamServer(r.host, s.Addr)
	}
	if cfg.Chaos != nil {
		r.installChaos(cfg.Chaos)
	}
	return r
}

// installChaos threads one schedule through every failure surface and
// gives it crash authority over individual tasks.
func (r *Region) installChaos(s *chaos.Schedule) {
	r.Net.SetChaos(s)
	r.Colossus.SetChaos(s)
	r.placer.SetChaos(s)
	s.OnCrash(chaos.KindStreamServer, r.CrashStreamServer)
	s.OnCrash(chaos.KindSMS, r.CrashSMSTask)
}

// Chaos returns the region's fault-injection schedule (nil when none).
func (r *Region) Chaos() *chaos.Schedule { return r.host.cfg.Chaos }

// NewClient returns a client bound to this region. A client opened with
// a read cache is automatically registered for GC invalidation.
func (r *Region) NewClient(opts client.Options) *client.Client { return r.host.NewClient(opts) }

// RegisterReadCache subscribes a client read cache to the region's
// fragment file-deletion events (SMS groomer and heartbeat-driven
// Stream Server GC).
func (r *Region) RegisterReadCache(rc *client.ReadCache) { r.host.RegisterReadCache(rc) }

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
	srv := StartStreamServer(r.host, addr)
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
	StartHeartbeats(ctx, every, r.HeartbeatAll)
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
