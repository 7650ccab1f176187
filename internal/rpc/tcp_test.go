package rpc

// TCP-specific fault surface: everything the in-memory transport cannot
// exhibit — failed dials, severed connections, partial frames, hostile
// bytes — must map onto the ErrUnreachable/ErrDropped contract the
// client retry logic is written against.

import (
	"context"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

func newTCPPair(t testing.TB) (caller *TCPTransport, host *TCPTransport, srv *Server) {
	t.Helper()
	srv = NewServer()
	host = NewTCPTransport()
	host.Register("task", srv)
	hostport, err := host.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	caller = NewTCPTransport()
	caller.SetDefaultRoute(hostport)
	t.Cleanup(func() {
		caller.Close()
		host.Close()
	})
	return caller, host, srv
}

func TestTCPNoRouteIsUnreachable(t *testing.T) {
	tr := NewTCPTransport()
	defer tr.Close()
	_, err := tr.Unary(context.Background(), "task", "m", &confMsg{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	if _, err := tr.OpenStream(context.Background(), "task", "m", 1024); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("open: want ErrUnreachable, got %v", err)
	}
}

func TestTCPDialFailureIsUnreachable(t *testing.T) {
	// Bind a port, then close it: the route points at a dead endpoint.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := ln.Addr().String()
	ln.Close()

	tr := NewTCPTransport()
	tr.SetDialTimeout(500 * time.Millisecond)
	tr.AddRoute("task", dead)
	defer tr.Close()
	_, err = tr.Unary(context.Background(), "task", "m", &confMsg{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable from failed dial, got %v", err)
	}
}

func TestTCPConnectionResetMapsToDropped(t *testing.T) {
	caller, host, srv := newTCPPair(t)
	entered := make(chan struct{}, 1)
	srv.RegisterUnary("hang", func(ctx context.Context, _ any) (any, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := caller.Unary(context.Background(), "task", "hang", &confMsg{})
		errCh <- err
	}()
	<-entered
	// Sever every established connection mid-call: the server may have
	// acted, so the failure must be ErrDropped (retry same target), not
	// ErrUnreachable (rotate away).
	host.AbortConnections()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("want ErrDropped after reset, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unary never failed after connection reset")
	}
	// The transport recovers: the next call dials a fresh connection.
	srv.RegisterUnary("ok", func(_ context.Context, req any) (any, error) { return req, nil })
	if _, err := caller.Unary(context.Background(), "task", "ok", &confMsg{ID: 7}); err != nil {
		t.Fatalf("call after reset: %v", err)
	}
}

func TestTCPStreamDiesWithDroppedOnReset(t *testing.T) {
	caller, host, srv := newTCPPair(t)
	srv.RegisterStream("echo", echoStream)
	cs, err := caller.OpenStream(context.Background(), "task", "echo", 1<<20)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := cs.Send(&confMsg{ID: 1}); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := cs.Recv(); err != nil {
		t.Fatalf("recv: %v", err)
	}
	host.AbortConnections()
	eventually(t, func() bool {
		if err := cs.Send(&confMsg{ID: 2}); errors.Is(err, ErrDropped) || errors.Is(err, ErrClosed) {
			return true
		}
		_, err := cs.Recv()
		return errors.Is(err, ErrDropped)
	}, "stream should die with ErrDropped after reset")
}

func TestTCPPartialFrameAndGarbageDoNotWedgeHost(t *testing.T) {
	caller, host, srv := newTCPPair(t)
	srv.RegisterUnary("ok", func(_ context.Context, req any) (any, error) { return req, nil })

	// A peer that sends garbage: the host kills that connection only.
	raw, err := net.Dial("tcp", host.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	raw.Write([]byte("this is not a vortex frame at all--------"))
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF or ECONNRESET both prove the host tore the connection down.
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("host should close garbage connection")
	}
	raw.Close()

	// A peer that sends a frame header and dies mid-payload.
	raw2, err := net.Dial("tcp", host.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	full := appendFrame(nil, ftUnaryReq, 1, []byte("partial payload that will be cut"))
	raw2.Write(full[:len(full)-5])
	raw2.Close()

	// The host still serves well-formed peers.
	resp, err := caller.Unary(context.Background(), "task", "ok", &confMsg{ID: 3})
	if err != nil {
		t.Fatalf("unary after hostile peers: %v", err)
	}
	if resp.(*confMsg).ID != 3 {
		t.Fatalf("bad resp %+v", resp)
	}
}

func TestTCPHeaderClaimDoesNotAllocate(t *testing.T) {
	// A length field is the peer's claim. One that promises 256 MiB and is
	// followed by a hang-up must cost the host what arrived, not what was
	// promised.
	tr := NewTCPTransport()
	defer tr.Close()
	peer, nc := net.Pipe()
	c := newTCPConn(tr, nc, "")
	go func() {
		peer.Write(hugeClaim())
		peer.Close()
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c.readLoop() // returns once the connection has failed
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("host allocated %d bytes for a frame of which a few arrived", grew)
	}
	c.mu.Lock()
	err := c.deadErr
	c.mu.Unlock()
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("connection ended with %v, want an ErrDropped-class error", err)
	}
}

func TestTCPBadCRCKillsConnection(t *testing.T) {
	_, host, _ := newTCPPair(t)
	raw, err := net.Dial("tcp", host.ListenAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	frame := appendFrame(nil, ftUnaryReq, 1, []byte("payload"))
	frame[len(frame)-1] ^= 0xff // corrupt the payload; CRC now mismatches
	raw.Write(frame)
	buf := make([]byte, 16)
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(buf); err == nil {
		t.Fatal("host should drop connection on CRC mismatch")
	}
}

func TestTCPLocalDispatchWithoutListener(t *testing.T) {
	// A transport can host and call its own servers without ever binding
	// a socket — the coordinator process calling its own SMS tasks.
	tr := NewTCPTransport()
	defer tr.Close()
	srv := NewServer()
	srv.RegisterUnary("ok", func(_ context.Context, req any) (any, error) { return req, nil })
	tr.Register("task", srv)
	resp, err := tr.Unary(context.Background(), "task", "ok", &confMsg{ID: 9})
	if err != nil {
		t.Fatalf("local unary: %v", err)
	}
	if resp.(*confMsg).ID != 9 {
		t.Fatalf("bad resp %+v", resp)
	}
}

func TestTCPDeregisterMakesAddrUnreachable(t *testing.T) {
	caller, host, srv := newTCPPair(t)
	srv.RegisterUnary("ok", func(_ context.Context, req any) (any, error) { return req, nil })
	if _, err := caller.Unary(context.Background(), "task", "ok", &confMsg{}); err != nil {
		t.Fatalf("before deregister: %v", err)
	}
	host.Deregister("task")
	_, err := caller.Unary(context.Background(), "task", "ok", &confMsg{})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable after deregister, got %v", err)
	}
}

func TestTCPTypedErrorRoundTrip(t *testing.T) {
	caller, _, srv := newTCPPair(t)
	srv.RegisterUnary("canceled", func(_ context.Context, _ any) (any, error) {
		return nil, context.DeadlineExceeded
	})
	_, err := caller.Unary(context.Background(), "task", "canceled", &confMsg{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded across the wire, got %v", err)
	}
}
