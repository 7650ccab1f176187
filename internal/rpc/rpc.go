// Package rpc is the in-process transport standing in for gRPC. It
// reproduces the two connection disciplines the Vortex client library
// adaptively switches between (§5.4.2):
//
//   - short-lived unary request/response calls with optimistic
//     connection pooling — cheap for tables written infrequently;
//   - long-lived bi-directional streams that pipeline multiple in-flight
//     requests and enforce byte-based flow control, so a Stream Server
//     can throttle ingress when too much data is in flight.
//
// Fault injection (partitions, deregistered servers) and latency
// injection (one sampled delay per hop, from the latency model) happen
// here, so every caller exercises the same failure surface the
// production system has.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vortex/internal/latencymodel"
	"vortex/internal/metrics"
)

// Errors returned by the transport.
var (
	ErrUnreachable = errors.New("rpc: server unreachable")
	ErrNoMethod    = errors.New("rpc: no such method")
	ErrClosed      = errors.New("rpc: stream closed")
	// ErrDropped: the request or response was lost in transit (injected
	// by a chaos schedule). Unlike ErrUnreachable the server may be
	// healthy — and may have acted — so callers retry the same target
	// first rather than rotating away.
	ErrDropped = errors.New("rpc: message dropped")
)

// Sized is implemented by messages that know their wire size; it drives
// flow-control accounting. Messages that do not implement it are
// accounted at a nominal size.
type Sized interface{ WireSize() int }

const nominalMessageSize = 256

func sizeOf(m any) int {
	if s, ok := m.(Sized); ok {
		return s.WireSize()
	}
	return nominalMessageSize
}

// Chaos injects scheduled failures at named transport cut-points. It is
// satisfied by *chaos.Schedule; declaring the interface here keeps the
// dependency arrow pointing from chaos consumers to their wiring
// (internal/core) rather than from rpc to chaos.
type Chaos interface {
	Inject(ctx context.Context, point, target string) error
}

// Cut-point names used by this package.
const (
	ChaosPointRequest    = "rpc.request"
	ChaosPointResponse   = "rpc.response"
	ChaosPointStreamSend = "rpc.stream.send"
	ChaosPointStreamResp = "rpc.stream.response"
)

// UnaryHandler serves one request/response call.
type UnaryHandler func(ctx context.Context, req any) (any, error)

// StreamHandler serves one bi-directional stream until it returns.
type StreamHandler func(ctx context.Context, stream ServerStream) error

// Server is a set of registered method handlers.
type Server struct {
	mu      sync.RWMutex
	unary   map[string]UnaryHandler
	streams map[string]StreamHandler
}

// NewServer returns an empty server.
func NewServer() *Server {
	return &Server{unary: make(map[string]UnaryHandler), streams: make(map[string]StreamHandler)}
}

// RegisterUnary installs a unary handler for method.
func (s *Server) RegisterUnary(method string, h UnaryHandler) {
	s.mu.Lock()
	s.unary[method] = h
	s.mu.Unlock()
}

// RegisterStream installs a stream handler for method.
func (s *Server) RegisterStream(method string, h StreamHandler) {
	s.mu.Lock()
	s.streams[method] = h
	s.mu.Unlock()
}

func (s *Server) unaryHandler(method string) (UnaryHandler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.unary[method]
	return h, ok
}

func (s *Server) streamHandler(method string) (StreamHandler, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h, ok := s.streams[method]
	return h, ok
}

// Stats counts transport activity, used by the unary-vs-bidi experiment.
type Stats struct {
	UnaryCalls       int64
	ConnectionSetups int64
	PooledReuses     int64
	StreamsOpened    int64
	StreamMessages   int64
}

// Network connects clients to named servers.
type Network struct {
	mu          sync.Mutex
	servers     map[string]*Server
	partitioned map[string]bool
	idleConns   map[string]int // per-address pooled idle connections

	sampler *latencymodel.Sampler
	chaos   Chaos

	unaryCalls  metrics.Counter
	setups      metrics.Counter
	reuses      metrics.Counter
	streams     metrics.Counter
	streamMsgs  metrics.Counter
	maxIdlePool int
}

// NewNetwork returns a network. sampler may be nil for zero latency.
func NewNetwork(sampler *latencymodel.Sampler) *Network {
	return &Network{
		servers:     make(map[string]*Server),
		partitioned: make(map[string]bool),
		idleConns:   make(map[string]int),
		sampler:     sampler,
		maxIdlePool: 32,
	}
}

// Register attaches a server at addr, replacing any previous one.
func (n *Network) Register(addr string, s *Server) {
	n.mu.Lock()
	n.servers[addr] = s
	n.mu.Unlock()
}

// Deregister removes the server at addr (a crashed task). In-flight
// streams to it fail on their next operation.
func (n *Network) Deregister(addr string) {
	n.mu.Lock()
	delete(n.servers, addr)
	delete(n.idleConns, addr)
	n.mu.Unlock()
}

// SetChaos installs a fault-injection schedule on the transport. A nil
// schedule (the default) injects nothing.
func (n *Network) SetChaos(c Chaos) {
	n.mu.Lock()
	n.chaos = c
	n.mu.Unlock()
}

func (n *Network) inject(ctx context.Context, point, target string) error {
	n.mu.Lock()
	c := n.chaos
	n.mu.Unlock()
	if c == nil {
		return nil
	}
	err := c.Inject(ctx, point, target)
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrDropped, err)
}

// SetPartitioned makes addr unreachable (or reachable again) without
// removing its server, modelling a network partition.
func (n *Network) SetPartitioned(addr string, v bool) {
	n.mu.Lock()
	n.partitioned[addr] = v
	n.mu.Unlock()
}

// Stats returns a snapshot of the transport counters.
func (n *Network) Stats() Stats {
	return Stats{
		UnaryCalls:       n.unaryCalls.Value(),
		ConnectionSetups: n.setups.Value(),
		PooledReuses:     n.reuses.Value(),
		StreamsOpened:    n.streams.Value(),
		StreamMessages:   n.streamMsgs.Value(),
	}
}

// has reports whether a server is registered at addr (used by the TCP
// transport to dispatch locally-hosted addresses without a socket hop).
func (n *Network) has(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.servers[addr]
	return ok
}

func (n *Network) lookup(addr string) (*Server, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.partitioned[addr] {
		return nil, fmt.Errorf("%w: %s is partitioned", ErrUnreachable, addr)
	}
	s, ok := n.servers[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	return s, nil
}

func (n *Network) hop() {
	if n.sampler == nil {
		return
	}
	latencymodel.Sleep(n.sampler.RPCHop())
}

// Unary performs one request/response call, reusing a pooled connection
// when one is idle and paying connection setup otherwise.
func (n *Network) Unary(ctx context.Context, addr, method string, req any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	srv, err := n.lookup(addr)
	if err != nil {
		return nil, err
	}
	h, ok := srv.unaryHandler(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoMethod, addr, method)
	}
	// Connection pool: take an idle connection or set up a new one.
	n.mu.Lock()
	if n.idleConns[addr] > 0 {
		n.idleConns[addr]--
		n.mu.Unlock()
		n.reuses.Add(1)
	} else {
		n.mu.Unlock()
		n.setups.Add(1)
		if n.sampler != nil {
			latencymodel.Sleep(n.sampler.ConnectionSetup())
		}
	}
	n.unaryCalls.Add(1)
	n.hop()
	// Chaos cut-point: the request may be dropped (or delayed) before the
	// server sees it — the write never happens.
	if err := n.inject(ctx, ChaosPointRequest, addr+"/"+method); err != nil {
		return nil, err
	}
	resp, err := h(ctx, req)
	if err == nil {
		// Chaos cut-point: the response may be lost after the server acted
		// — the caller must retry an operation that already happened.
		if cerr := n.inject(ctx, ChaosPointResponse, addr+"/"+method); cerr != nil {
			return nil, cerr
		}
	}
	n.hop()
	// Return the connection to the pool.
	n.mu.Lock()
	if n.idleConns[addr] < n.maxIdlePool {
		n.idleConns[addr]++
	}
	n.mu.Unlock()
	return resp, err
}

// memLink is the in-memory wiring of one direction of a stream: the
// moves of the end `from` arrive at the end `to` by direct call. A
// message crosses the simulated network on the way — partition check,
// chaos cut-point, latency hop — and is counted once it has arrived.
type memLink struct {
	net      *Network
	addr     string
	from, to *streamEnd
	point    string // the chaos cut-point messages of this direction cross
}

func (l *memLink) deliver(m any) error {
	if l.point == ChaosPointStreamSend {
		// Partition check on every request: a long-lived stream dies when
		// the network does.
		if _, err := l.net.lookup(l.addr); err != nil {
			l.from.fail(err)
			l.to.fail(err)
			return err
		}
	}
	// Chaos cut-point: a request may be lost before the server sees it, a
	// response after the server produced it — the reader must resume from
	// its last checkpoint.
	if err := l.net.inject(context.Background(), l.point, l.addr); err != nil {
		return err
	}
	l.net.hop()
	l.to.deliver(m)
	l.net.streamMsgs.Add(1)
	return nil
}

func (l *memLink) credit(n int)    { l.to.credit(n) }
func (l *memLink) halfClose()      { l.to.halfClose() }
func (l *memLink) reset(err error) { l.to.reset(err) }

// OpenStream establishes a long-lived bi-directional stream to
// addr/method with the given flow-control window in bytes. The handler
// runs in its own goroutine until it returns or the stream is closed.
func (n *Network) OpenStream(ctx context.Context, addr, method string, window int) (ClientStream, error) {
	if window <= 0 {
		return nil, errors.New("rpc: flow-control window must be positive")
	}
	srv, err := n.lookup(addr)
	if err != nil {
		return nil, err
	}
	h, ok := srv.streamHandler(method)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNoMethod, addr, method)
	}
	n.streams.Add(1)
	n.setups.Add(1)
	if n.sampler != nil {
		latencymodel.Sleep(n.sampler.ConnectionSetup())
	}
	client, server := newStreamEnd(window), newStreamEnd(window)
	client.peer = &memLink{net: n, addr: addr, from: client, to: server, point: ChaosPointStreamSend}
	server.peer = &memLink{net: n, addr: addr, from: server, to: client, point: ChaosPointStreamResp}
	var sctx context.Context
	sctx, server.cancel = context.WithCancel(ctx)
	go server.serve(sctx, h)
	go client.watch(ctx)
	return client, nil
}
