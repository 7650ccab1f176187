// Package clusterd wires Vortex subsystems into multi-process cluster
// nodes. internal/core builds the whole region in one process around the
// in-memory transport; clusterd builds the same topology out of OS
// processes connected by the TCP transport:
//
//   - The coordinator hosts the durable substrate and the control plane:
//     the Colossus region (served to workers via internal/colossusrpc),
//     the Spanner database, the SMS task pool, streamlet placement, the
//     BigMeta fragment index and the read-session service.
//   - Workers host Stream Servers — the data plane — reaching Colossus
//     through the coordinator's proxy and heartbeating to the SMS pool
//     over TCP.
//   - Clients (vortex-bench, vortexd tools) connect with a route table
//     mapping every logical task address to a host:port.
//
// Logical addresses stay identical to the single-process region (sms-0,
// ss-alpha-w0-0, readsession-0, …), so every component works unchanged;
// only the transport underneath them differs.
package clusterd

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"vortex/internal/bigmeta"
	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/colossusrpc"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/rpc"
	"vortex/internal/sms"
	"vortex/internal/spanner"
	"vortex/internal/streamserver"
	"vortex/internal/truetime"
)

// ServerSpec names one Stream Server task and the Colossus cluster it
// considers home (its first write replica).
type ServerSpec struct {
	Addr    string
	Cluster string
}

// NodeConfig fully describes one cluster process. It crosses the
// process boundary as JSON in an environment variable, so every field
// must be plain data.
type NodeConfig struct {
	// Role is "coordinator" or "worker".
	Role string
	// Listen is the TCP listen address ("127.0.0.1:0" when empty).
	Listen string
	// Clusters names the region's Colossus clusters.
	Clusters []string
	// SMSTasks sizes the coordinator's control-plane pool.
	SMSTasks int
	// Servers are the Stream Server tasks this worker hosts.
	Servers []ServerSpec
	// AllServers is the region-wide Stream Server set (the coordinator's
	// placer needs the full map; workers ignore it).
	AllServers []ServerSpec
	// Key is the hex-encoded 32-byte AES key every node shares — block
	// encryption must verify across process boundaries.
	Key string
	// MaxFragmentBytes overrides fragment rotation size (0 = default).
	MaxFragmentBytes int64
	// HeartbeatEveryMS is the worker heartbeat period (default 200ms).
	HeartbeatEveryMS int64
}

// Validate checks the fields a node cannot start without.
func (c *NodeConfig) Validate() error {
	switch c.Role {
	case "coordinator":
		if c.SMSTasks <= 0 {
			return errors.New("clusterd: coordinator needs SMSTasks > 0")
		}
		if len(c.AllServers) == 0 {
			return errors.New("clusterd: coordinator needs AllServers")
		}
	case "worker":
		if len(c.Servers) == 0 {
			return errors.New("clusterd: worker needs Servers")
		}
	default:
		return fmt.Errorf("clusterd: unknown role %q", c.Role)
	}
	if len(c.Clusters) == 0 {
		return errors.New("clusterd: no clusters")
	}
	if _, err := c.key(); err != nil {
		return err
	}
	return nil
}

func (c *NodeConfig) key() ([]byte, error) {
	key, err := hex.DecodeString(c.Key)
	if err != nil || len(key) != 32 {
		return nil, errors.New("clusterd: Key must be 64 hex chars (32 bytes)")
	}
	return key, nil
}

func (c *NodeConfig) keyring() (*blockenc.Keyring, error) {
	key, err := c.key()
	if err != nil {
		return nil, err
	}
	kr := blockenc.NewKeyring()
	if err := kr.SetKey(blockenc.SystemKey, key); err != nil {
		return nil, err
	}
	return kr, nil
}

// Router returns the cluster's table→SMS routing. Multi-process mode
// replaces the Slicer (whose assignments live in coordinator memory)
// with a stable hash every process computes identically — routing must
// agree between the client, the coordinator and every worker without a
// shared lookup service.
func Router(smsTasks int) client.Router { return &staticRouter{n: smsTasks} }

type staticRouter struct{ n int }

func (r *staticRouter) SMSFor(table meta.TableID) (string, error) {
	if r.n <= 0 {
		return "", errors.New("clusterd: router has no SMS tasks")
	}
	h := fnv.New32a()
	h.Write([]byte(table))
	return fmt.Sprintf("sms-%d", int(h.Sum32())%r.n), nil
}

// Coordinator is a running coordinator node.
type Coordinator struct {
	Region       *colossus.Region
	DB           *spanner.DB
	SMSTasks     []*sms.Task
	BigMeta      *bigmeta.Index
	ReadSessions *readsession.Server
	Clock        truetime.Clock
}

// StartCoordinator wires the control plane and durable substrate onto
// net. Workers must be routable (the SMS instructs Stream Servers by
// their logical addresses) before the first table is created.
func StartCoordinator(net rpc.Transport, cfg NodeConfig) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	keyring, err := cfg.keyring()
	if err != nil {
		return nil, err
	}
	clock := truetime.NewSystem(4*time.Millisecond, 0)
	co := &Coordinator{
		Region:  colossus.NewRegion(cfg.Clusters...),
		Clock:   clock,
		BigMeta: bigmeta.NewIndex(),
	}
	co.DB = spanner.NewDB(clock)
	colossusrpc.Serve(net, colossusrpc.DefaultAddr, co.Region)
	placer := sms.NewPlacer(cfg.Clusters)
	for _, s := range cfg.AllServers {
		placer.AddServer(s.Addr, s.Cluster)
	}
	for i := 0; i < cfg.SMSTasks; i++ {
		task := sms.New(fmt.Sprintf("sms-%d", i), co.DB, net, placer)
		task.SetColossus(co.Region)
		task.SetFragmentListener(co.BigMeta)
		co.SMSTasks = append(co.SMSTasks, task)
	}
	// The read-session service scans through its own client; on the
	// coordinator that client reaches Colossus directly.
	rsOpts := client.DefaultOptions()
	rsOpts.ReadCacheBytes = 32 << 20
	rsClient := client.New(net, Router(cfg.SMSTasks), co.Region, keyring, clock, rsOpts)
	co.ReadSessions = readsession.NewServer(readsession.DefaultAddr, rsClient, co.BigMeta, clock)
	return co, nil
}

// Worker is a running worker node.
type Worker struct {
	Servers map[string]*streamserver.Server
	stop    context.CancelFunc
	done    chan struct{}
}

// StartWorker hosts the configured Stream Servers on net, reaching
// Colossus through the coordinator's proxy, and runs their heartbeat
// loop until Stop.
func StartWorker(net rpc.Transport, cfg NodeConfig) (*Worker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	keyring, err := cfg.keyring()
	if err != nil {
		return nil, err
	}
	clock := truetime.NewSystem(4*time.Millisecond, 0)
	store := colossusrpc.NewRemote(net, colossusrpc.DefaultAddr)
	router := Router(cfg.SMSTasks)
	w := &Worker{Servers: make(map[string]*streamserver.Server, len(cfg.Servers)), done: make(chan struct{})}
	addrs := make([]string, 0, len(cfg.Servers))
	for _, spec := range cfg.Servers {
		sscfg := streamserver.DefaultConfig(spec.Addr)
		if cfg.MaxFragmentBytes > 0 {
			sscfg.MaxFragmentBytes = cfg.MaxFragmentBytes
		}
		w.Servers[spec.Addr] = streamserver.New(sscfg, store, clock, keyring, router, net)
		addrs = append(addrs, spec.Addr)
	}
	sort.Strings(addrs)
	every := time.Duration(cfg.HeartbeatEveryMS) * time.Millisecond
	if every <= 0 {
		every = 200 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	go func() {
		defer close(w.done)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		n := 0
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				n++
				for _, addr := range addrs {
					_ = w.Servers[addr].HeartbeatNow(ctx, n%10 == 0)
				}
			}
		}
	}()
	return w, nil
}

// Stop ends the worker's heartbeat loop.
func (w *Worker) Stop() {
	w.stop()
	<-w.done
}
