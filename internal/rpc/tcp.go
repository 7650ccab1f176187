package rpc

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPTransport is the real-socket Transport: logical server addresses
// (the same "sms-0" / "ss-alpha-1" strings the in-memory transport uses)
// are routed to host:port endpoints, and all traffic to one endpoint is
// multiplexed over a single persistent connection carrying one gob
// stream each way, cut into CRC32C-protected frames (frame.go).
// Semantics match *Network exactly — the
// conformance suite holds both to the same contract:
//
//   - unary calls are request/response pairs correlated by call id;
//   - streams carry per-direction byte flow control: a sender blocks
//     while the window is full of un-received bytes, and the receiver
//     returns credit with window frames as the application Recvs;
//   - context cancellation crosses the wire as a reset frame;
//   - a failed dial or missing route maps to ErrUnreachable (the target
//     never saw the request — rotate away), while any failure of an
//     established connection maps to ErrDropped (the target may have
//     acted — retry the same target first).
//
// Servers registered locally are dispatched through an embedded
// in-memory Network without touching a socket, so one process can host
// its own tasks and call remote ones through the same Transport value.
type TCPTransport struct {
	local *Network

	mu           sync.Mutex
	routes       map[string]string // logical addr -> host:port
	defaultRoute string
	conns        map[string]*tcpConn // dialed, by host:port
	accepted     map[*tcpConn]struct{}
	ln           net.Listener
	closed       bool

	dialTimeout time.Duration

	ctx    context.Context
	cancel context.CancelFunc
}

// NewTCPTransport returns a TCP transport with no routes and no
// listener. Call Listen to serve locally-registered servers to peers,
// AddRoute/SetDefaultRoute to reach remote ones.
func NewTCPTransport() *TCPTransport {
	ctx, cancel := context.WithCancel(context.Background())
	return &TCPTransport{
		local:       NewNetwork(nil),
		routes:      make(map[string]string),
		conns:       make(map[string]*tcpConn),
		accepted:    make(map[*tcpConn]struct{}),
		dialTimeout: 3 * time.Second,
		ctx:         ctx,
		cancel:      cancel,
	}
}

// SetDialTimeout overrides the per-connection dial timeout.
func (t *TCPTransport) SetDialTimeout(d time.Duration) {
	t.mu.Lock()
	t.dialTimeout = d
	t.mu.Unlock()
}

// Listen binds hostport (e.g. "127.0.0.1:0") and starts serving
// locally-registered servers to peers. It returns the bound address.
func (t *TCPTransport) Listen(hostport string) (string, error) {
	ln, err := net.Listen("tcp", hostport)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return "", errors.New("rpc: transport closed")
	}
	if t.ln != nil {
		t.mu.Unlock()
		ln.Close()
		return "", errors.New("rpc: transport already listening")
	}
	t.ln = ln
	t.mu.Unlock()
	go t.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// ListenAddr returns the bound listen address ("" before Listen).
func (t *TCPTransport) ListenAddr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

func (t *TCPTransport) acceptLoop(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := newTCPConn(t, nc, "")
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			nc.Close()
			return
		}
		t.accepted[c] = struct{}{}
		t.mu.Unlock()
		go c.readLoop()
	}
}

// AddRoute maps a logical server address to a peer's host:port.
func (t *TCPTransport) AddRoute(logical, hostport string) {
	t.mu.Lock()
	t.routes[logical] = hostport
	t.mu.Unlock()
}

// AddRoutes maps a batch of logical addresses at once.
func (t *TCPTransport) AddRoutes(routes map[string]string) {
	t.mu.Lock()
	for logical, hostport := range routes {
		t.routes[logical] = hostport
	}
	t.mu.Unlock()
}

// SetDefaultRoute sends logical addresses with no explicit route to
// hostport ("" disables the fallback).
func (t *TCPTransport) SetDefaultRoute(hostport string) {
	t.mu.Lock()
	t.defaultRoute = hostport
	t.mu.Unlock()
}

// Close tears down the listener and every connection. In-flight calls
// fail with ErrDropped.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	ln := t.ln
	conns := t.allConns()
	t.mu.Unlock()
	t.cancel()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.fail(fmt.Errorf("%w: transport closed", ErrDropped))
	}
	return nil
}

// AbortConnections hard-closes every established connection without any
// protocol goodbye — the test hook standing in for a mid-call TCP reset.
// Subsequent calls dial fresh connections.
func (t *TCPTransport) AbortConnections() {
	t.mu.Lock()
	conns := t.allConns()
	t.mu.Unlock()
	for _, c := range conns {
		if tc, ok := c.nc.(*net.TCPConn); ok {
			tc.SetLinger(0)
		}
		c.nc.Close()
	}
}

// allConns snapshots every established connection, dialed and accepted.
// The caller holds t.mu.
func (t *TCPTransport) allConns() []*tcpConn {
	conns := make([]*tcpConn, 0, len(t.conns)+len(t.accepted))
	for _, c := range t.conns {
		conns = append(conns, c)
	}
	for c := range t.accepted {
		conns = append(conns, c)
	}
	return conns
}

// Register attaches a server at the logical address addr; peers reach it
// through this transport's listener, local callers bypass the socket.
func (t *TCPTransport) Register(addr string, s *Server) { t.local.Register(addr, s) }

// Deregister removes the server at addr.
func (t *TCPTransport) Deregister(addr string) { t.local.Deregister(addr) }

func (t *TCPTransport) resolve(addr string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", fmt.Errorf("%w: transport closed", ErrUnreachable)
	}
	if hp, ok := t.routes[addr]; ok {
		return hp, nil
	}
	if t.defaultRoute != "" {
		return t.defaultRoute, nil
	}
	return "", fmt.Errorf("%w: no route to %s", ErrUnreachable, addr)
}

// connFor returns a live connection to the peer hosting addr, dialing if
// needed. Dial failures map to ErrUnreachable: the peer never saw
// anything, so the caller should rotate away.
func (t *TCPTransport) connFor(ctx context.Context, addr string) (*tcpConn, error) {
	hostport, err := t.resolve(addr)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	if c := t.conns[hostport]; c != nil && !c.isDead() {
		t.mu.Unlock()
		return c, nil
	}
	timeout := t.dialTimeout
	t.mu.Unlock()
	d := net.Dialer{Timeout: timeout}
	nc, err := d.DialContext(ctx, "tcp", hostport)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrUnreachable, hostport, err)
	}
	c := newTCPConn(t, nc, hostport)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		nc.Close()
		return nil, fmt.Errorf("%w: transport closed", ErrUnreachable)
	}
	if existing := t.conns[hostport]; existing != nil && !existing.isDead() {
		// Lost a dial race; use the established connection.
		t.mu.Unlock()
		nc.Close()
		return existing, nil
	}
	t.conns[hostport] = c
	t.mu.Unlock()
	go c.readLoop()
	return c, nil
}

func (t *TCPTransport) removeConn(c *tcpConn) {
	t.mu.Lock()
	if c.hostport != "" && t.conns[c.hostport] == c {
		delete(t.conns, c.hostport)
	}
	delete(t.accepted, c)
	t.mu.Unlock()
}

// Unary performs one request/response call, dispatching locally-hosted
// addresses in process and everything else over the wire.
func (t *TCPTransport) Unary(ctx context.Context, addr, method string, req any) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t.local.has(addr) {
		return t.local.Unary(ctx, addr, method, req)
	}
	c, err := t.connFor(ctx, addr)
	if err != nil {
		return nil, err
	}
	return c.unary(ctx, addr, method, req)
}

// OpenStream establishes a bi-directional stream with the given
// flow-control window in bytes.
func (t *TCPTransport) OpenStream(ctx context.Context, addr, method string, window int) (ClientStream, error) {
	if window <= 0 {
		return nil, errors.New("rpc: flow-control window must be positive")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if t.local.has(addr) {
		return t.local.OpenStream(ctx, addr, method, window)
	}
	c, err := t.connFor(ctx, addr)
	if err != nil {
		return nil, err
	}
	return c.openStream(ctx, addr, method, window)
}

// Gob payload bodies for each frame type. Message fields are interfaces:
// the concrete types must be gob-registered (internal/wire does this for
// every storage message from init()).
type tcpUnaryReq struct {
	Addr   string
	Method string
	M      any
}

type tcpUnaryResp struct {
	M   any
	Err *WireError
}

type tcpStreamOpen struct {
	Addr   string
	Method string
	Window int
}

type tcpStreamAccept struct {
	Err *WireError
}

type tcpStreamMsg struct {
	M any
}

type tcpWindow struct {
	Bytes int
}

type tcpReset struct {
	Err *WireError
}

type unaryResult struct {
	m   any
	err error
}

// tcpConn is one multiplexed connection. The same type serves both the
// dialing side (which originates calls and streams) and the accepting
// side (which hosts handlers); a process pair that calls in both
// directions simply holds two connections.
type tcpConn struct {
	t        *TCPTransport
	nc       net.Conn
	hostport string // "" on accepted connections

	// Write side. wmu makes encode + Write one critical section: the
	// encoder sends a type's descriptor once per connection, so frames
	// must reach the socket in the order they were encoded.
	wmu  sync.Mutex
	wbuf bytes.Buffer // the frame being built: header space, then enc's output
	enc  *gob.Encoder // writes into wbuf

	// Read side, owned by readLoop. Payloads are fed to dec in arrival
	// order; it keeps the type descriptors and decode engines of every
	// frame before.
	br   *bufio.Reader
	rbuf []byte       // payload buffer for frames up to connBufLen
	rd   bytes.Reader // the current payload
	dec  *gob.Decoder // reads from rd

	mu      sync.Mutex
	nextID  uint32
	calls   map[uint32]chan unaryResult
	cancels map[uint32]context.CancelFunc // inbound unary calls, by id
	streams map[uint32]*streamEnd         // client ends on a dialed connection, server ends on an accepted one
	dead    bool
	deadErr error
	deadCh  chan struct{}

	ctx    context.Context
	cancel context.CancelFunc
}

// connBufLen sizes a connection's socket read-ahead and its payload
// buffer, and caps the write buffer kept between frames: a bigger message
// gets a buffer of its own and gives it up afterwards, so one large read
// response does not stay pinned per connection.
const connBufLen = 32 << 10

func newTCPConn(t *TCPTransport, nc net.Conn, hostport string) *tcpConn {
	ctx, cancel := context.WithCancel(t.ctx)
	c := &tcpConn{
		t:        t,
		nc:       nc,
		hostport: hostport,
		br:       bufio.NewReaderSize(nc, connBufLen),
		rbuf:     make([]byte, connBufLen),
		calls:    make(map[uint32]chan unaryResult),
		cancels:  make(map[uint32]context.CancelFunc),
		streams:  make(map[uint32]*streamEnd),
		deadCh:   make(chan struct{}),
		ctx:      ctx,
		cancel:   cancel,
	}
	c.enc = gob.NewEncoder(&c.wbuf)
	c.dec = gob.NewDecoder(&c.rd)
	return c
}

func (c *tcpConn) isDead() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dead
}

// fail tears the connection down: every pending call and every stream on
// it terminates with err (an ErrDropped-class error — the peer may have
// acted on anything already written).
func (c *tcpConn) fail(err error) {
	c.mu.Lock()
	if c.dead {
		c.mu.Unlock()
		return
	}
	c.dead = true
	c.deadErr = err
	calls := c.calls
	streams := c.streams
	c.calls = make(map[uint32]chan unaryResult)
	c.streams = make(map[uint32]*streamEnd)
	close(c.deadCh)
	c.mu.Unlock()
	c.cancel()
	c.nc.Close()
	for _, ch := range calls {
		ch <- unaryResult{err: err}
	}
	for _, e := range streams {
		e.reset(err)
	}
	c.t.removeConn(c)
}

// writeFrame appends body (nil for a bare frame) to the connection's gob
// stream and writes the segment as one frame. Either failure kills the
// connection: after a failed write framing is lost, and after a failed
// encode the encoder may count a type descriptor as sent that the peer
// never received, so nothing encoded later could be decoded.
func (c *tcpConn) writeFrame(typ frameType, id uint32, body any) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf.Reset()
	c.wbuf.Write(make([]byte, frameHeaderLen))
	if body != nil {
		if err := c.enc.Encode(body); err != nil {
			c.fail(fmt.Errorf("%w: connection to %s closed: a message could not be encoded: %v", ErrDropped, c.nc.RemoteAddr(), err))
			return fmt.Errorf("rpc: encode frame %d: %w", typ, err)
		}
	}
	putFrameHeader(c.wbuf.Bytes(), typ, id)
	_, err := c.nc.Write(c.wbuf.Bytes())
	if c.wbuf.Cap() > connBufLen {
		c.wbuf = bytes.Buffer{}
	}
	if err != nil {
		werr := fmt.Errorf("%w: write to %s: %v", ErrDropped, c.nc.RemoteAddr(), err)
		c.fail(werr)
		return werr
	}
	return nil
}

func (c *tcpConn) readLoop() {
	for {
		f, err := readFrame(c.br, c.rbuf)
		if err != nil {
			c.fail(fmt.Errorf("%w: connection to %s lost: %v", ErrDropped, c.nc.RemoteAddr(), err))
			return
		}
		if err := c.dispatch(f); err != nil {
			c.fail(fmt.Errorf("%w: protocol error from %s: %v", ErrDropped, c.nc.RemoteAddr(), err))
			return
		}
	}
}

// decode reads f's payload, the next segment of the peer's gob stream,
// into v. A segment holds exactly one value (after any descriptors for
// types it is the first to use).
func (c *tcpConn) decode(f frame, v any) error {
	c.rd.Reset(f.payload)
	if err := c.dec.Decode(v); err != nil {
		return err
	}
	if c.rd.Len() != 0 {
		return fmt.Errorf("%d bytes after the message in a type %d frame", c.rd.Len(), f.typ)
	}
	return nil
}

// dispatch routes one frame. It must never block on application code:
// the reader staying responsive is what keeps window/credit frames
// flowing and prevents cross-stream head-of-line deadlock.
func (c *tcpConn) dispatch(f frame) error {
	switch f.typ {
	case ftUnaryReq:
		var req tcpUnaryReq
		if err := c.decode(f, &req); err != nil {
			return err
		}
		hctx, hcancel := context.WithCancel(c.ctx)
		c.mu.Lock()
		c.cancels[f.id] = hcancel
		c.mu.Unlock()
		go c.serveUnary(hctx, hcancel, f.id, req)
	case ftUnaryCancel:
		c.mu.Lock()
		hcancel := c.cancels[f.id]
		c.mu.Unlock()
		if hcancel != nil {
			hcancel()
		}
	case ftUnaryResp:
		var resp tcpUnaryResp
		if err := c.decode(f, &resp); err != nil {
			return err
		}
		c.mu.Lock()
		ch := c.calls[f.id]
		delete(c.calls, f.id)
		c.mu.Unlock()
		if ch != nil {
			ch <- unaryResult{m: resp.M, err: decodeWireError(resp.Err)}
		}
	case ftStreamOpen:
		var open tcpStreamOpen
		if err := c.decode(f, &open); err != nil {
			return err
		}
		c.serveStreamOpen(f.id, open)
	case ftStreamAccept:
		var acc tcpStreamAccept
		if err := c.decode(f, &acc); err != nil {
			return err
		}
		if acc.Err != nil {
			if e := c.stream(f.id, true); e != nil {
				e.reset(decodeWireError(acc.Err))
			}
		} else if e := c.stream(f.id, false); e != nil {
			select {
			case e.accepted <- struct{}{}:
			default: // not an end that is waiting to be accepted
			}
		}
	case ftStreamMsg, ftStreamResp:
		var msg tcpStreamMsg
		if err := c.decode(f, &msg); err != nil {
			return err
		}
		if e := c.stream(f.id, false); e != nil {
			e.deliver(msg.M)
		}
	case ftWindow:
		var w tcpWindow
		if err := c.decode(f, &w); err != nil {
			return err
		}
		if e := c.stream(f.id, false); e != nil {
			e.credit(w.Bytes)
		}
	case ftCloseSend:
		if e := c.stream(f.id, false); e != nil {
			e.halfClose()
		}
	case ftReset, ftHandlerDone:
		var r tcpReset
		if err := c.decode(f, &r); err != nil {
			return err
		}
		if e := c.stream(f.id, true); e != nil {
			e.reset(decodeWireError(r.Err))
		}
	default:
		return fmt.Errorf("unexpected frame type %d", f.typ)
	}
	return nil
}

func (c *tcpConn) serveUnary(ctx context.Context, cancel context.CancelFunc, id uint32, req tcpUnaryReq) {
	defer func() {
		cancel()
		c.mu.Lock()
		delete(c.cancels, id)
		c.mu.Unlock()
	}()
	var resp any
	var err error
	if srv, lerr := c.t.local.lookup(req.Addr); lerr != nil {
		err = lerr
	} else if h, ok := srv.unaryHandler(req.Method); !ok {
		err = fmt.Errorf("%w: %s/%s", ErrNoMethod, req.Addr, req.Method)
	} else {
		resp, err = h(ctx, req.M)
	}
	c.writeFrame(ftUnaryResp, id, &tcpUnaryResp{M: resp, Err: encodeWireError(err)})
}

func (c *tcpConn) serveStreamOpen(id uint32, open tcpStreamOpen) {
	srv, err := c.t.local.lookup(open.Addr)
	var h StreamHandler
	if err == nil {
		var ok bool
		h, ok = srv.streamHandler(open.Method)
		if !ok {
			err = fmt.Errorf("%w: %s/%s", ErrNoMethod, open.Addr, open.Method)
		}
	}
	if err == nil && open.Window <= 0 {
		err = errors.New("rpc: flow-control window must be positive")
	}
	if err != nil {
		c.writeFrame(ftStreamAccept, id, &tcpStreamAccept{Err: encodeWireError(err)})
		return
	}
	e := newStreamEnd(open.Window)
	e.peer = tcpLink{c: c, id: id, msg: ftStreamResp, rst: ftHandlerDone}
	var hctx context.Context
	hctx, e.cancel = context.WithCancel(c.ctx)
	if c.addStream(id, e) != nil {
		e.cancel()
		return
	}
	if c.writeFrame(ftStreamAccept, id, &tcpStreamAccept{}) != nil {
		return // the connection is dead, and its failing has reset e
	}
	go func() {
		e.serve(hctx, h)
		c.stream(id, true)
	}()
}

// tcpLink is the TCP wiring of a stream end's outgoing moves: each
// becomes one frame on the connection. The incoming moves are the
// peer's frames, which dispatch turns into calls on the local end.
type tcpLink struct {
	c        *tcpConn
	id       uint32
	msg, rst frameType // ftStreamMsg/ftReset from a client end, ftStreamResp/ftHandlerDone from a server end
}

func (l tcpLink) deliver(m any) error {
	return l.c.writeFrame(l.msg, l.id, &tcpStreamMsg{M: m})
}

// The remaining moves have nobody to report a failed write to, and need
// nobody: writeFrame fails the connection, which resets every end on it.

func (l tcpLink) credit(n int)    { l.c.writeFrame(ftWindow, l.id, &tcpWindow{Bytes: n}) }
func (l tcpLink) halfClose()      { l.c.writeFrame(ftCloseSend, l.id, nil) }
func (l tcpLink) reset(err error) { l.c.writeFrame(l.rst, l.id, &tcpReset{Err: encodeWireError(err)}) }

// addStream registers e under id, unless the connection is already dead.
func (c *tcpConn) addStream(id uint32, e *streamEnd) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return c.deadErr
	}
	c.streams[id] = e
	return nil
}

// stream returns the end registered under id, nil if there is none, and
// forgets it when drop is set.
func (c *tcpConn) stream(id uint32, drop bool) *streamEnd {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.streams[id]
	if drop {
		delete(c.streams, id)
	}
	return e
}

func (c *tcpConn) newID() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

func (c *tcpConn) unary(ctx context.Context, addr, method string, req any) (any, error) {
	id := c.newID()
	ch := make(chan unaryResult, 1)
	c.mu.Lock()
	if c.dead {
		err := c.deadErr
		c.mu.Unlock()
		return nil, err
	}
	c.calls[id] = ch
	c.mu.Unlock()
	if err := c.writeFrame(ftUnaryReq, id, &tcpUnaryReq{Addr: addr, Method: method, M: req}); err != nil {
		return nil, err
	}
	select {
	case r := <-ch:
		return r.m, r.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		c.writeFrame(ftUnaryCancel, id, nil)
		return nil, ctx.Err()
	}
}

func (c *tcpConn) openStream(ctx context.Context, addr, method string, window int) (ClientStream, error) {
	id := c.newID()
	e := newStreamEnd(window)
	e.peer = tcpLink{c: c, id: id, msg: ftStreamMsg, rst: ftReset}
	e.accepted = make(chan struct{}, 1)
	if err := c.addStream(id, e); err != nil {
		return nil, err
	}
	if err := c.writeFrame(ftStreamOpen, id, &tcpStreamOpen{Addr: addr, Method: method, Window: window}); err != nil {
		return nil, err
	}
	select {
	case <-e.accepted:
	case <-e.done:
		// Refused, or the connection died — unless the accept and a quick
		// handler's return have both arrived already.
		select {
		case <-e.accepted:
		default:
			return nil, e.Err()
		}
	case <-ctx.Done():
		c.stream(id, true)
		e.peer.reset(ctx.Err())
		return nil, ctx.Err()
	}
	// Propagate caller cancellation as a stream reset for the life of the
	// stream.
	go e.watch(ctx)
	return e, nil
}

func init() {
	// Basic concrete types that may cross the wire inside `any` fields
	// without a package-level registration of their own.
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register([]byte(nil))
	gob.Register(float64(0))
	gob.Register([]string(nil))
	gob.Register(map[string]string(nil))
}
