// Package clusterd runs a Vortex region as multi-process cluster nodes.
// internal/core starts the whole region in one process around the
// in-memory transport; clusterd starts the same tasks with the same
// core constructors as OS processes connected by the TCP transport:
//
//   - The coordinator hosts the control plane (core.StartControlPlane):
//     the Colossus region (served to workers via internal/colossusrpc),
//     the Spanner database, the SMS task pool, streamlet placement, the
//     BigMeta fragment index and the read-session service.
//   - Workers host Stream Servers (core.StartStreamServer) — the data
//     plane — reaching Colossus through the coordinator's proxy and
//     heartbeating to the SMS pool over TCP (core.StartHeartbeats).
//   - Clients (vortex-bench, vortexd tools) connect with a route table
//     mapping every logical task address to a host:port.
//
// Logical addresses follow core's layout (sms-0, ss-alpha-w0-0,
// readsession-0, …), so every component works unchanged; only the
// transport underneath them differs. What is clusterd's own is the
// node's keyring from its shared key, the Colossus proxy, the static
// hash router that stands in for Slicer, and the process handshake
// (proc.go).
package clusterd

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/colossusrpc"
	"vortex/internal/core"
	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/streamserver"
)

// ServerSpec names one Stream Server task and the Colossus cluster it
// considers home (its first write replica).
type ServerSpec = core.ServerSpec

// NodeConfig fully describes one cluster process. It crosses the
// process boundary as JSON in an environment variable, so every field
// must be plain data.
type NodeConfig struct {
	// Role is "coordinator" or "worker".
	Role string
	// Clusters names the region's Colossus clusters (≥2, §5.1).
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
	if len(c.Clusters) < 2 {
		return errors.New("clusterd: needs at least two clusters")
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

// host is this node's share of the region: net, Colossus as the node
// reaches it, the cluster's shared key and the static router.
func (c *NodeConfig) host(net rpc.Transport, store colossus.Store) (*core.Host, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	key, _ := c.key() // Validate decoded it
	kr := blockenc.NewKeyring()
	if err := kr.SetKey(blockenc.SystemKey, key); err != nil {
		return nil, err
	}
	rc := core.Config{Clusters: c.Clusters, SMSTasks: c.SMSTasks, MaxFragmentBytes: c.MaxFragmentBytes}
	return core.NewHost(rc, net, store, kr, Router(c.SMSTasks)), nil
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
	return core.SMSAddr(int(h.Sum32()) % r.n), nil
}

// Coordinator is a running coordinator node.
type Coordinator struct {
	*core.ControlPlane
	// Region is the Colossus region the coordinator serves to workers
	// (ControlPlane.Colossus).
	Region *colossus.Region
}

// StartCoordinator starts the control plane and the Colossus proxy on
// net. Workers must be routable (the SMS instructs Stream Servers by
// their logical addresses) before the first table is created.
func StartCoordinator(net rpc.Transport, cfg NodeConfig) (*Coordinator, error) {
	region := colossus.NewRegion(cfg.Clusters...)
	h, err := cfg.host(net, region)
	if err != nil {
		return nil, err
	}
	colossusrpc.Serve(net, colossusrpc.DefaultAddr, region)
	return &Coordinator{ControlPlane: core.StartControlPlane(h, region, cfg.AllServers), Region: region}, nil
}

// Worker is a running worker node.
type Worker struct {
	Servers map[string]*streamserver.Server
	stop    context.CancelFunc
	done    <-chan struct{}
}

// StartWorker hosts the configured Stream Servers on net, reaching
// Colossus through the coordinator's proxy, and runs their heartbeat
// loop until Stop.
func StartWorker(net rpc.Transport, cfg NodeConfig) (*Worker, error) {
	h, err := cfg.host(net, colossusrpc.NewRemote(net, colossusrpc.DefaultAddr))
	if err != nil {
		return nil, err
	}
	w := &Worker{Servers: make(map[string]*streamserver.Server, len(cfg.Servers))}
	addrs := make([]string, 0, len(cfg.Servers))
	for _, spec := range cfg.Servers {
		w.Servers[spec.Addr] = core.StartStreamServer(h, spec.Addr)
		addrs = append(addrs, spec.Addr)
	}
	sort.Strings(addrs)
	every := time.Duration(cfg.HeartbeatEveryMS) * time.Millisecond
	if every <= 0 {
		every = 200 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	w.done = core.StartHeartbeats(ctx, every, func(ctx context.Context, full bool) {
		for _, addr := range addrs {
			_ = w.Servers[addr].HeartbeatNow(ctx, full)
		}
	})
	return w, nil
}

// Stop ends the worker's heartbeat loop.
func (w *Worker) Stop() {
	w.stop()
	<-w.done
}
