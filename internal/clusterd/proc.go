package clusterd

// Process orchestration for a localhost cluster. Ports are not known
// until each node binds, and the coordinator instructs Stream Servers by
// logical address, so startup is a two-phase handshake over the child's
// stdio:
//
//	child:  binds 127.0.0.1:0, prints  "ADDR <host:port>"
//	parent: collects every node's address, builds the full logical→TCP
//	        route table, writes one line  "ROUTES <json>"  to each stdin
//	child:  installs routes, wires its role, prints  "READY"
//	parent: proceeds once every node is READY
//
// The child's stdin doubles as its lifetime: stdin EOF (parent exit,
// clean or not) is the shutdown signal, so no cluster process can
// outlive its parent.

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"vortex/internal/core"
	"vortex/internal/rpc"
)

// NodeConfigEnv is the environment variable carrying a NodeConfig to a
// child process. Binaries that can serve as cluster nodes (vortexd, the
// package's own test binary) check it at startup and divert into RunNode.
const NodeConfigEnv = "VORTEX_CLUSTER_NODE_CONFIG"

// RunNode runs one cluster node to completion: handshake on in/out,
// serve until stdin closes. It is the entire main() of a child process.
func RunNode(cfgJSON string, in io.Reader, out io.Writer) error {
	var cfg NodeConfig
	if err := json.Unmarshal([]byte(cfgJSON), &cfg); err != nil {
		return fmt.Errorf("clusterd: bad node config: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	tr := rpc.NewTCPTransport()
	defer tr.Close()
	hostport, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ADDR %s\n", hostport)

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		return fmt.Errorf("clusterd: stdin closed before ROUTES: %v", sc.Err())
	}
	line := sc.Text()
	if !strings.HasPrefix(line, "ROUTES ") {
		return fmt.Errorf("clusterd: expected ROUTES line, got %q", line)
	}
	var routes map[string]string
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "ROUTES ")), &routes); err != nil {
		return fmt.Errorf("clusterd: bad ROUTES payload: %w", err)
	}
	tr.AddRoutes(routes)

	switch cfg.Role {
	case "coordinator":
		if _, err := StartCoordinator(tr, cfg); err != nil {
			return err
		}
	case "worker":
		w, err := StartWorker(tr, cfg)
		if err != nil {
			return err
		}
		defer w.Stop()
	}
	fmt.Fprintln(out, "READY")
	for sc.Scan() {
		// Nothing is expected after READY; drain until EOF.
	}
	return nil
}

// MaybeRunNode diverts into RunNode when the node-config environment
// variable is set, exiting the process when the node finishes. Binaries
// that spawn clusters by self-exec call it first thing in main().
func MaybeRunNode() {
	cfgJSON := os.Getenv(NodeConfigEnv)
	if cfgJSON == "" {
		return
	}
	if err := RunNode(cfgJSON, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Node is one spawned cluster process, as the parent sees it.
type Node struct {
	Name string
	// Addr is the TCP address the node bound.
	Addr string
	// Logical lists the logical task addresses this node serves.
	Logical []string

	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines *bufio.Scanner
	waitC chan error
}

func (n *Node) expect(prefix string, timeout time.Duration) (string, error) {
	type scanRes struct {
		line string
		err  error
	}
	ch := make(chan scanRes, 1)
	go func() {
		for n.lines.Scan() {
			line := n.lines.Text()
			if strings.HasPrefix(line, prefix) {
				ch <- scanRes{line: strings.TrimSpace(strings.TrimPrefix(line, prefix))}
				return
			}
		}
		ch <- scanRes{err: fmt.Errorf("node %s exited before %q: %v", n.Name, prefix, n.lines.Err())}
	}()
	select {
	case r := <-ch:
		return r.line, r.err
	case <-time.After(timeout):
		return "", fmt.Errorf("node %s: timeout waiting for %q", n.Name, prefix)
	}
}

// Close shuts the node down (stdin EOF) and waits briefly before
// killing it.
func (n *Node) Close() {
	if n.stdin != nil {
		n.stdin.Close()
	}
	select {
	case <-n.waitC:
	case <-time.After(5 * time.Second):
		if n.cmd.Process != nil {
			n.cmd.Process.Kill()
		}
		<-n.waitC
	}
}

// ClusterSpec sizes a localhost cluster.
type ClusterSpec struct {
	Clusters         []string
	SMSTasks         int
	Workers          int
	ServersPerWorker int
	MaxFragmentBytes int64
	HeartbeatEveryMS int64
}

func (s *ClusterSpec) withDefaults() ClusterSpec {
	out := *s
	defaults := core.DefaultConfig()
	if len(out.Clusters) == 0 {
		out.Clusters = defaults.Clusters
	}
	if out.SMSTasks <= 0 {
		out.SMSTasks = defaults.SMSTasks
	}
	if out.Workers <= 0 {
		out.Workers = 2
	}
	if out.ServersPerWorker <= 0 {
		out.ServersPerWorker = 2
	}
	return out
}

// workerServers returns the Stream Server specs hosted by worker i,
// whose home clusters take turns.
func (s *ClusterSpec) workerServers(i int) []ServerSpec {
	return core.WorkerServers(s.Clusters[i%len(s.Clusters)], i, s.ServersPerWorker)
}

// LocalCluster is a running multi-process cluster plus everything a
// client process needs to join it.
type LocalCluster struct {
	Spec   ClusterSpec
	Nodes  []*Node
	Routes map[string]string
	KeyHex string
}

// LaunchLocal spawns a coordinator and spec.Workers worker processes by
// re-executing exe with the node-config environment variable set, runs
// the route handshake, and returns once every node is READY.
func LaunchLocal(ctx context.Context, exe string, spec ClusterSpec) (*LocalCluster, error) {
	spec = spec.withDefaults()
	key := make([]byte, 32)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	lc := &LocalCluster{Spec: spec, Routes: make(map[string]string), KeyHex: hex.EncodeToString(key)}

	var all []ServerSpec
	for i := 0; i < spec.Workers; i++ {
		all = append(all, spec.workerServers(i)...)
	}
	coordLogical := core.ControlAddrs(spec.SMSTasks)

	spawn := func(name string, logical []string, cfg NodeConfig) error {
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		cmd := exec.CommandContext(ctx, exe)
		cmd.Env = append(os.Environ(), NodeConfigEnv+"="+string(cfgJSON))
		cmd.Stderr = os.Stderr
		stdin, err := cmd.StdinPipe()
		if err != nil {
			return err
		}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return err
		}
		n := &Node{Name: name, Logical: logical, cmd: cmd, stdin: stdin, waitC: make(chan error, 1)}
		n.lines = bufio.NewScanner(stdout)
		go func() { n.waitC <- cmd.Wait() }()
		lc.Nodes = append(lc.Nodes, n)
		addr, err := n.expect("ADDR ", 30*time.Second)
		if err != nil {
			return err
		}
		n.Addr = addr
		for _, l := range logical {
			lc.Routes[l] = addr
		}
		return nil
	}

	fail := func(err error) (*LocalCluster, error) {
		lc.Shutdown()
		return nil, err
	}

	shared := NodeConfig{
		Clusters:         spec.Clusters,
		SMSTasks:         spec.SMSTasks,
		Key:              lc.KeyHex,
		MaxFragmentBytes: spec.MaxFragmentBytes,
		HeartbeatEveryMS: spec.HeartbeatEveryMS,
	}
	coordCfg := shared
	coordCfg.Role = "coordinator"
	coordCfg.AllServers = all
	if err := spawn("coordinator", coordLogical, coordCfg); err != nil {
		return fail(err)
	}
	for i := 0; i < spec.Workers; i++ {
		wCfg := shared
		wCfg.Role = "worker"
		wCfg.Servers = spec.workerServers(i)
		logical := make([]string, 0, len(wCfg.Servers))
		for _, s := range wCfg.Servers {
			logical = append(logical, s.Addr)
		}
		if err := spawn(fmt.Sprintf("worker-%d", i), logical, wCfg); err != nil {
			return fail(err)
		}
	}

	routesJSON, err := json.Marshal(lc.Routes)
	if err != nil {
		return fail(err)
	}
	for _, n := range lc.Nodes {
		if _, err := fmt.Fprintf(n.stdin, "ROUTES %s\n", routesJSON); err != nil {
			return fail(fmt.Errorf("node %s: writing routes: %w", n.Name, err))
		}
	}
	for _, n := range lc.Nodes {
		if _, err := n.expect("READY", 30*time.Second); err != nil {
			return fail(err)
		}
	}
	return lc, nil
}

// NewTransport returns a client-side transport routed to every node.
func (lc *LocalCluster) NewTransport() *rpc.TCPTransport {
	tr := rpc.NewTCPTransport()
	tr.AddRoutes(lc.Routes)
	return tr
}

// Shutdown stops every node (coordinator last, so workers can finish
// heartbeats against it).
func (lc *LocalCluster) Shutdown() {
	for i := len(lc.Nodes) - 1; i >= 0; i-- {
		lc.Nodes[i].Close()
	}
}
