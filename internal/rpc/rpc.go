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
// injection (per-hop and per-byte, from the latency model) happen here,
// so every caller exercises the same failure surface the production
// system has.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"io"
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
// flow-control accounting and the bandwidth latency term. Messages that
// do not implement it are accounted at a nominal size.
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

func (n *Network) hop(size int) {
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
	n.hop(sizeOf(req))
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
	n.hop(sizeOf(resp))
	// Return the connection to the pool.
	n.mu.Lock()
	if n.idleConns[addr] < n.maxIdlePool {
		n.idleConns[addr]++
	}
	n.mu.Unlock()
	return resp, err
}

// streamCore is the shared state of one bi-directional stream.
type streamCore struct {
	net  *Network
	addr string

	mu           sync.Mutex
	sendQ        []any // client -> server
	recvQ        []any // server -> client
	inflight     int   // bytes sent by client, not yet received by server
	respInflight int   // bytes sent by server, not yet received by client
	window       int
	sendDone     bool  // client called CloseSend
	closed       bool  // stream torn down
	err          error // terminal error
	cond         *sync.Cond
}

func (c *streamCore) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.closed = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// memClientStream is the in-memory transport's client stream end.
type memClientStream struct {
	core   *streamCore
	cancel context.CancelFunc
	doneCh chan struct{} // closed when the handler returns
}

// memServerStream is the in-memory transport's server stream end.
type memServerStream struct {
	core *streamCore
}

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
	core := &streamCore{net: n, addr: addr, window: window}
	core.cond = sync.NewCond(&core.mu)
	sctx, cancel := context.WithCancel(ctx)
	cs := &memClientStream{core: core, cancel: cancel, doneCh: make(chan struct{})}
	ss := &memServerStream{core: core}
	go func() {
		defer close(cs.doneCh)
		err := h(sctx, ss)
		if err == nil {
			err = io.EOF
		}
		core.fail(err)
		cancel()
	}()
	// Tear the stream down if the context is cancelled.
	go func() {
		<-sctx.Done()
		core.fail(context.Cause(sctx))
	}()
	return cs, nil
}

// Send transmits one request to the server, blocking while the
// flow-control window is exhausted — this is how the Stream Server
// "throttles incoming appends when there is a large amount of data
// in-flight" (§5.4.2).
func (cs *memClientStream) Send(m any) error {
	size := sizeOf(m)
	c := cs.core
	// Partition check on every message: a long-lived stream dies when
	// the network does.
	if _, err := c.net.lookup(c.addr); err != nil {
		c.fail(err)
		return err
	}
	if err := c.net.inject(context.Background(), ChaosPointStreamSend, c.addr); err != nil {
		return err
	}
	c.net.hop(size)
	c.mu.Lock()
	// The window bounds *buffered* bytes, HTTP/2-style: a message larger
	// than the whole window is still admitted once nothing else is in
	// flight, so an undersized window degrades to lock-step transfer
	// instead of wedging the stream.
	for !c.closed && !c.sendDone && c.inflight+size > c.window && c.inflight > 0 {
		c.cond.Wait()
	}
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == io.EOF {
			err = ErrClosed
		}
		return err
	}
	if c.sendDone {
		c.mu.Unlock()
		return ErrClosed
	}
	c.inflight += size
	c.sendQ = append(c.sendQ, m)
	c.net.streamMsgs.Add(1)
	c.cond.Broadcast()
	c.mu.Unlock()
	return nil
}

// Recv returns the next response from the server, releasing its
// flow-control credit so the server may push more. It returns io.EOF
// when the handler finished cleanly and no responses remain.
func (cs *memClientStream) Recv() (any, error) {
	c := cs.core
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.recvQ) == 0 && !c.closed {
		c.cond.Wait()
	}
	if len(c.recvQ) > 0 {
		m := c.recvQ[0]
		c.recvQ = c.recvQ[1:]
		c.respInflight -= sizeOf(m)
		c.cond.Broadcast()
		return m, nil
	}
	return nil, c.err
}

// CloseSend signals that the client will send no more requests; the
// server's Recv returns io.EOF after draining.
func (cs *memClientStream) CloseSend() {
	c := cs.core
	c.mu.Lock()
	c.sendDone = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// Close tears down the stream and waits for the handler to return.
func (cs *memClientStream) Close() {
	cs.core.fail(ErrClosed)
	cs.cancel()
	<-cs.doneCh
}

// Err returns the stream's terminal error, if any (io.EOF for a clean
// handler completion).
func (cs *memClientStream) Err() error {
	c := cs.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Recv returns the next request from the client, blocking until one is
// available. Receiving releases the message's flow-control credit. It
// returns io.EOF after the client calls CloseSend and the queue drains.
func (ss *memServerStream) Recv() (any, error) {
	c := ss.core
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.sendQ) == 0 && !c.closed && !c.sendDone {
		c.cond.Wait()
	}
	if len(c.sendQ) > 0 {
		m := c.sendQ[0]
		c.sendQ = c.sendQ[1:]
		c.inflight -= sizeOf(m)
		c.cond.Broadcast()
		return m, nil
	}
	if c.closed && c.err != nil && c.err != io.EOF && !errors.Is(c.err, ErrClosed) {
		return nil, c.err
	}
	return nil, io.EOF
}

// Send transmits one response to the client, blocking while the
// response-direction flow-control window is exhausted. This is the
// server-side mirror of ClientStream.Send: a slow reader draining a
// record-batch stream throttles the server instead of letting it queue
// unbounded bytes in transit.
func (ss *memServerStream) Send(m any) error {
	size := sizeOf(m)
	c := ss.core
	// Chaos cut-point: a response may be lost mid-stream after the server
	// produced it — the reader must resume from its last checkpoint.
	if err := c.net.inject(context.Background(), ChaosPointStreamResp, c.addr); err != nil {
		return err
	}
	c.net.hop(size)
	c.mu.Lock()
	defer c.mu.Unlock()
	// As in ClientStream.Send, the window bounds buffered bytes: an
	// oversized response is admitted once the direction is idle rather
	// than failing the stream.
	for !c.closed && c.respInflight+size > c.window && c.respInflight > 0 {
		c.cond.Wait()
	}
	if c.closed {
		if c.err != nil && c.err != io.EOF {
			return c.err
		}
		return ErrClosed
	}
	c.respInflight += size
	c.recvQ = append(c.recvQ, m)
	c.net.streamMsgs.Add(1)
	c.cond.Broadcast()
	return nil
}

// InflightBytes reports the bytes currently counted against the
// flow-control window (observable by tests and the Stream Server).
func (ss *memServerStream) InflightBytes() int {
	c := ss.core
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight
}
