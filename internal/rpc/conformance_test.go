package rpc

// The cross-transport conformance suite: every semantics subtest below
// runs against both the in-memory Network and the TCP transport, so the
// two implementations can never drift. Anything a subsystem relies on —
// error mapping, stream EOF discipline, flow-control blocking, context
// cancellation — belongs here, phrased against the Transport interface
// only.

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// confMsg is an unsized conformance message (nominal accounting).
type confMsg struct {
	ID   int
	Body string
}

// confSized reports an explicit wire size.
type confSized struct {
	N    int
	Size int
}

func (m *confSized) WireSize() int { return m.Size }

func init() {
	gob.Register(&confMsg{})
	gob.Register(&confSized{})
}

// conformanceTarget builds a caller-side Transport plus the logical
// address a prepared *Server is reachable at.
type conformanceTarget struct {
	name string
	// make registers srv at the returned address and returns the
	// transport a client should call through.
	make func(t testing.TB, srv *Server) (Transport, string)
}

func conformanceTargets() []conformanceTarget {
	return []conformanceTarget{
		{
			name: "inmemory",
			make: func(t testing.TB, srv *Server) (Transport, string) {
				n := NewNetwork(nil)
				n.Register("conf-srv", srv)
				return n, "conf-srv"
			},
		},
		{
			name: "tcp",
			make: func(t testing.TB, srv *Server) (Transport, string) {
				host := NewTCPTransport()
				host.Register("conf-srv", srv)
				hostport, err := host.Listen("127.0.0.1:0")
				if err != nil {
					t.Fatalf("listen: %v", err)
				}
				caller := NewTCPTransport()
				caller.SetDefaultRoute(hostport)
				t.Cleanup(func() {
					caller.Close()
					host.Close()
				})
				return caller, "conf-srv"
			},
		},
	}
}

// forEachTransport runs fn once per transport implementation.
func forEachTransport(t *testing.T, fn func(t *testing.T, tr Transport, addr string, srv *Server)) {
	for _, target := range conformanceTargets() {
		target := target
		t.Run(target.name, func(t *testing.T) {
			srv := NewServer()
			tr, addr := target.make(t, srv)
			fn(t, tr, addr, srv)
		})
	}
}

// eventually polls cond until it holds or the deadline passes.
func eventually(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("condition never held: %s", msg)
}

func TestConformanceUnaryRoundTrip(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterUnary("echo", func(_ context.Context, req any) (any, error) {
			m := req.(*confMsg)
			return &confMsg{ID: m.ID + 1, Body: m.Body + "!"}, nil
		})
		resp, err := tr.Unary(context.Background(), addr, "echo", &confMsg{ID: 41, Body: "hi"})
		if err != nil {
			t.Fatalf("unary: %v", err)
		}
		got := resp.(*confMsg)
		if got.ID != 42 || got.Body != "hi!" {
			t.Fatalf("got %+v", got)
		}
	})
}

func TestConformanceUnaryNilRequestAndResponse(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterUnary("nil", func(_ context.Context, req any) (any, error) {
			if req != nil {
				return nil, fmt.Errorf("expected nil request, got %T", req)
			}
			return nil, nil
		})
		resp, err := tr.Unary(context.Background(), addr, "nil", nil)
		if err != nil {
			t.Fatalf("unary: %v", err)
		}
		if resp != nil {
			t.Fatalf("expected nil response, got %T", resp)
		}
	})
}

func TestConformanceUnaryErrorTextPreserved(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterUnary("boom", func(_ context.Context, _ any) (any, error) {
			return nil, errors.New("custom failure detail 1234")
		})
		_, err := tr.Unary(context.Background(), addr, "boom", &confMsg{})
		if err == nil || !strings.Contains(err.Error(), "custom failure detail 1234") {
			t.Fatalf("error text lost: %v", err)
		}
	})
}

func TestConformanceUnarySentinelErrorSurvives(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterUnary("dropped", func(_ context.Context, _ any) (any, error) {
			return nil, fmt.Errorf("%w: synthetic", ErrDropped)
		})
		_, err := tr.Unary(context.Background(), addr, "dropped", &confMsg{})
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("want ErrDropped, got %v", err)
		}
	})
}

func TestConformanceUnaryNoMethod(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		_, err := tr.Unary(context.Background(), addr, "nope", &confMsg{})
		if !errors.Is(err, ErrNoMethod) {
			t.Fatalf("want ErrNoMethod, got %v", err)
		}
	})
}

func TestConformanceUnaryUnknownAddrUnreachable(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		_, err := tr.Unary(context.Background(), "no-such-task", "echo", &confMsg{})
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("want ErrUnreachable, got %v", err)
		}
	})
}

func TestConformanceUnaryConcurrent(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterUnary("echo", func(_ context.Context, req any) (any, error) {
			return req, nil
		})
		var wg sync.WaitGroup
		errCh := make(chan error, 64)
		for i := 0; i < 64; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				resp, err := tr.Unary(context.Background(), addr, "echo", &confMsg{ID: i})
				if err != nil {
					errCh <- err
					return
				}
				if got := resp.(*confMsg).ID; got != i {
					errCh <- fmt.Errorf("call %d got %d", i, got)
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	})
}

func TestConformanceUnaryContextCancel(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		started := make(chan struct{})
		srv.RegisterUnary("hang", func(ctx context.Context, _ any) (any, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-started
			cancel()
		}()
		_, err := tr.Unary(ctx, addr, "hang", &confMsg{})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	})
}

func TestConformanceStreamEcho(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("echo", func(_ context.Context, ss ServerStream) error {
			for {
				m, err := ss.Recv()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if err := ss.Send(m); err != nil {
					return err
				}
			}
		})
		cs, err := tr.OpenStream(context.Background(), addr, "echo", 1<<20)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < 10; i++ {
			if err := cs.Send(&confMsg{ID: i}); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		cs.CloseSend()
		for i := 0; i < 10; i++ {
			m, err := cs.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if got := m.(*confMsg).ID; got != i {
				t.Fatalf("recv %d got %d", i, got)
			}
		}
		if _, err := cs.Recv(); err != io.EOF {
			t.Fatalf("want io.EOF after drain, got %v", err)
		}
		if err := cs.Err(); err != io.EOF {
			t.Fatalf("Err() after clean end: want io.EOF, got %v", err)
		}
	})
}

func TestConformanceStreamEOFOnImmediateReturn(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("quick", func(_ context.Context, _ ServerStream) error {
			return nil
		})
		cs, err := tr.OpenStream(context.Background(), addr, "quick", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := cs.Recv(); err != io.EOF {
			t.Fatalf("want io.EOF, got %v", err)
		}
	})
}

func TestConformanceStreamResponsesDrainBeforeEOF(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("burst", func(_ context.Context, ss ServerStream) error {
			for i := 0; i < 5; i++ {
				if err := ss.Send(&confMsg{ID: i}); err != nil {
					return err
				}
			}
			return nil
		})
		cs, err := tr.OpenStream(context.Background(), addr, "burst", 1<<20)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < 5; i++ {
			m, err := cs.Recv()
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if got := m.(*confMsg).ID; got != i {
				t.Fatalf("recv %d got %d", i, got)
			}
		}
		if _, err := cs.Recv(); err != io.EOF {
			t.Fatalf("want io.EOF after drain, got %v", err)
		}
	})
}

func TestConformanceStreamHandlerErrorPropagates(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("fail", func(_ context.Context, ss ServerStream) error {
			if _, err := ss.Recv(); err != nil {
				return err
			}
			return fmt.Errorf("%w: handler gave up", ErrDropped)
		})
		cs, err := tr.OpenStream(context.Background(), addr, "fail", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if err := cs.Send(&confMsg{ID: 1}); err != nil {
			t.Fatalf("send: %v", err)
		}
		_, err = cs.Recv()
		if !errors.Is(err, ErrDropped) || !strings.Contains(err.Error(), "handler gave up") {
			t.Fatalf("want wrapped ErrDropped with text, got %v", err)
		}
	})
}

func TestConformanceStreamNoMethod(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		_, err := tr.OpenStream(context.Background(), addr, "nope", 1024)
		if !errors.Is(err, ErrNoMethod) {
			t.Fatalf("want ErrNoMethod, got %v", err)
		}
	})
}

func TestConformanceStreamUnknownAddrUnreachable(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		_, err := tr.OpenStream(context.Background(), "no-such-task", "echo", 1024)
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("want ErrUnreachable, got %v", err)
		}
	})
}

func TestConformanceStreamRejectsNonPositiveWindow(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("echo", func(_ context.Context, _ ServerStream) error { return nil })
		if _, err := tr.OpenStream(context.Background(), addr, "echo", 0); err == nil {
			t.Fatal("want error for zero window")
		}
	})
}

// registerGatedSink installs a stream handler that only Recvs when told
// to, and reports each received message — the harness for flow-control
// blocking tests.
func registerGatedSink(srv *Server, allow chan struct{}, got chan any) {
	srv.RegisterStream("sink", func(_ context.Context, ss ServerStream) error {
		for range allow {
			m, err := ss.Recv()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			got <- m
		}
		return nil
	})
}

func TestConformanceSendBlocksAtWindowAndUnblocksOnRecv(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		allow := make(chan struct{}, 16)
		got := make(chan any, 16)
		registerGatedSink(srv, allow, got)
		cs, err := tr.OpenStream(context.Background(), addr, "sink", 100)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer cs.Close()
		// First message fits the window outright.
		if err := cs.Send(&confSized{N: 1, Size: 60}); err != nil {
			t.Fatalf("send 1: %v", err)
		}
		// Second would exceed the window while bytes are in flight: Send
		// must block.
		sendDone := make(chan error, 1)
		go func() { sendDone <- cs.Send(&confSized{N: 2, Size: 60}) }()
		select {
		case err := <-sendDone:
			t.Fatalf("send 2 did not block (err=%v)", err)
		case <-time.After(100 * time.Millisecond):
		}
		// The server Recv'ing message 1 returns its credit; Send unblocks.
		allow <- struct{}{}
		select {
		case err := <-sendDone:
			if err != nil {
				t.Fatalf("send 2 after credit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("send 2 still blocked after server Recv")
		}
		allow <- struct{}{}
		if m := <-got; m.(*confSized).N != 1 {
			t.Fatal("out of order")
		}
		if m := <-got; m.(*confSized).N != 2 {
			t.Fatal("out of order")
		}
		close(allow)
	})
}

func TestConformanceOversizeMessageLockStep(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		allow := make(chan struct{}, 16)
		got := make(chan any, 16)
		registerGatedSink(srv, allow, got)
		cs, err := tr.OpenStream(context.Background(), addr, "sink", 100)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer cs.Close()
		// A message larger than the whole window is admitted while the
		// direction is idle (lock-step degradation, not a wedge).
		if err := cs.Send(&confSized{N: 1, Size: 500}); err != nil {
			t.Fatalf("oversize send: %v", err)
		}
		// But the next message must wait until the oversize one is
		// received.
		sendDone := make(chan error, 1)
		go func() { sendDone <- cs.Send(&confSized{N: 2, Size: 10}) }()
		select {
		case err := <-sendDone:
			t.Fatalf("send after oversize did not block (err=%v)", err)
		case <-time.After(100 * time.Millisecond):
		}
		allow <- struct{}{}
		select {
		case err := <-sendDone:
			if err != nil {
				t.Fatalf("send after credit: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("send still blocked after oversize was received")
		}
		allow <- struct{}{}
		<-got
		<-got
		// Every byte came back: the direction is idle again, so a second
		// oversize message is admitted like the first.
		if err := cs.Send(&confSized{N: 3, Size: 500}); err != nil {
			t.Fatalf("second oversize send: %v", err)
		}
		allow <- struct{}{}
		<-got
		close(allow)
	})
}

func TestConformanceNominalAccountingForUnsizedMessages(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		allow := make(chan struct{}, 16)
		got := make(chan any, 16)
		registerGatedSink(srv, allow, got)
		// Window fits one nominal (256-byte) message but not two.
		cs, err := tr.OpenStream(context.Background(), addr, "sink", 300)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer cs.Close()
		if err := cs.Send(&confMsg{ID: 1}); err != nil {
			t.Fatalf("send 1: %v", err)
		}
		sendDone := make(chan error, 1)
		go func() { sendDone <- cs.Send(&confMsg{ID: 2}) }()
		select {
		case err := <-sendDone:
			t.Fatalf("unsized send 2 did not block (err=%v)", err)
		case <-time.After(100 * time.Millisecond):
		}
		allow <- struct{}{}
		select {
		case err := <-sendDone:
			if err != nil {
				t.Fatalf("send 2: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("send 2 still blocked")
		}
		allow <- struct{}{}
		<-got
		<-got
		close(allow)
	})
}

func TestConformanceResponseDirectionFlowControl(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		sent := make(chan int, 16)
		srv.RegisterStream("push", func(_ context.Context, ss ServerStream) error {
			for i := 1; i <= 3; i++ {
				if err := ss.Send(&confSized{N: i, Size: 60}); err != nil {
					return err
				}
				sent <- i
			}
			return nil
		})
		cs, err := tr.OpenStream(context.Background(), addr, "push", 100)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// The server can buffer one 60-byte response; the second Send
		// blocks until the client Recvs.
		if got := <-sent; got != 1 {
			t.Fatalf("first send %d", got)
		}
		select {
		case got := <-sent:
			t.Fatalf("server send %d did not block at response window", got)
		case <-time.After(100 * time.Millisecond):
		}
		m, err := cs.Recv()
		if err != nil || m.(*confSized).N != 1 {
			t.Fatalf("recv 1: %v %v", m, err)
		}
		select {
		case got := <-sent:
			if got != 2 {
				t.Fatalf("unblocked send %d", got)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server send still blocked after client Recv")
		}
		for i := 2; i <= 3; i++ {
			m, err := cs.Recv()
			if err != nil || m.(*confSized).N != i {
				t.Fatalf("recv %d: %v %v", i, m, err)
			}
		}
		if _, err := cs.Recv(); err != io.EOF {
			t.Fatalf("want io.EOF, got %v", err)
		}
	})
}

func TestConformanceContextCancelMidStream(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		handlerCtxDone := make(chan struct{})
		srv.RegisterStream("hang", func(ctx context.Context, ss ServerStream) error {
			<-ctx.Done()
			close(handlerCtxDone)
			return ctx.Err()
		})
		ctx, cancel := context.WithCancel(context.Background())
		cs, err := tr.OpenStream(ctx, addr, "hang", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		cancel()
		select {
		case <-handlerCtxDone:
		case <-time.After(5 * time.Second):
			t.Fatal("handler context never cancelled")
		}
		eventually(t, func() bool {
			_, err := cs.Recv()
			return errors.Is(err, context.Canceled)
		}, "client Recv should surface context.Canceled")
		eventually(t, func() bool {
			return cs.Send(&confMsg{}) != nil
		}, "client Send should fail after cancellation")
	})
}

func TestConformanceCloseSendYieldsServerEOF(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		sawEOF := make(chan struct{})
		srv.RegisterStream("drain", func(_ context.Context, ss ServerStream) error {
			n := 0
			for {
				_, err := ss.Recv()
				if err == io.EOF {
					if n == 3 {
						close(sawEOF)
					}
					return nil
				}
				if err != nil {
					return err
				}
				n++
			}
		})
		cs, err := tr.OpenStream(context.Background(), addr, "drain", 1<<20)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := cs.Send(&confMsg{ID: i}); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		cs.CloseSend()
		select {
		case <-sawEOF:
		case <-time.After(5 * time.Second):
			t.Fatal("server never saw io.EOF after CloseSend")
		}
		if _, err := cs.Recv(); err != io.EOF {
			t.Fatalf("client end: want io.EOF, got %v", err)
		}
	})
}

func TestConformanceSendAfterCloseSendFails(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("drain", func(_ context.Context, ss ServerStream) error {
			for {
				if _, err := ss.Recv(); err != nil {
					return nil
				}
			}
		})
		cs, err := tr.OpenStream(context.Background(), addr, "drain", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		cs.CloseSend()
		if err := cs.Send(&confMsg{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	})
}

func TestConformanceSendAfterHandlerReturnFails(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("quick", func(_ context.Context, _ ServerStream) error { return nil })
		cs, err := tr.OpenStream(context.Background(), addr, "quick", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := cs.Recv(); err != io.EOF {
			t.Fatalf("want io.EOF, got %v", err)
		}
		if err := cs.Send(&confMsg{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("want ErrClosed after handler return, got %v", err)
		}
	})
}

func TestConformanceServerSendAfterClientCloseFails(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		result := make(chan error, 1)
		started := make(chan struct{})
		srv.RegisterStream("push", func(ctx context.Context, ss ServerStream) error {
			close(started)
			<-ctx.Done()
			// Keep trying: the stream is torn down, so Send must fail
			// (possibly after in-flight credit drains).
			for i := 0; i < 100; i++ {
				if err := ss.Send(&confMsg{ID: i}); err != nil {
					result <- err
					return nil
				}
			}
			result <- nil
			return nil
		})
		cs, err := tr.OpenStream(context.Background(), addr, "push", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		<-started
		cs.Close()
		select {
		case err := <-result:
			if err == nil {
				t.Fatal("server Send kept succeeding after client Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("server handler never finished")
		}
	})
}

func TestConformanceCloseJoinsHandler(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		started := make(chan struct{})
		var returned atomic.Bool
		srv.RegisterStream("linger", func(ctx context.Context, _ ServerStream) error {
			close(started)
			<-ctx.Done()
			// Long enough that a Close which does not wait is seen not to.
			time.Sleep(50 * time.Millisecond)
			returned.Store(true)
			return nil
		})
		cs, err := tr.OpenStream(context.Background(), addr, "linger", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		<-started
		cs.Close()
		if !returned.Load() {
			t.Fatal("Close returned before the handler did")
		}
		if err := cs.Send(&confMsg{}); !errors.Is(err, ErrClosed) {
			t.Fatalf("send on a closed stream: want ErrClosed, got %v", err)
		}
		if _, err := cs.Recv(); !errors.Is(err, ErrClosed) {
			t.Fatalf("recv on a closed stream: want ErrClosed, got %v", err)
		}
	})
}

func TestConformanceDeliveredMessageIsReleased(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("pair", func(ctx context.Context, ss ServerStream) error {
			for i := 0; i < 2; i++ {
				if err := ss.Send(&confSized{N: i, Size: 10}); err != nil {
					return err
				}
			}
			<-ctx.Done() // the stream, and so its queue, outlives the check
			return nil
		})
		cs, err := tr.OpenStream(context.Background(), addr, "pair", 1024)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer cs.Close()
		// With both messages queued, taking the first leaves the queue's
		// array in use: only a cleared slot lets the message go.
		end := cs.(*streamEnd)
		eventually(t, func() bool {
			end.mu.Lock()
			defer end.mu.Unlock()
			return len(end.inbox) == 2
		}, "both messages should be queued at the client end")
		collected := make(chan struct{})
		func() {
			m, err := cs.Recv()
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			runtime.SetFinalizer(m.(*confSized), func(*confSized) { close(collected) })
		}()
		eventually(t, func() bool {
			runtime.GC()
			select {
			case <-collected:
				return true
			default:
				return false
			}
		}, "a delivered message should not stay reachable from the stream's queue")
	})
}

func TestConformanceConcurrentStreamsIsolated(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		srv.RegisterStream("echo", func(_ context.Context, ss ServerStream) error {
			for {
				m, err := ss.Recv()
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if err := ss.Send(m); err != nil {
					return err
				}
			}
		})
		const streams = 8
		const msgs = 50
		var wg sync.WaitGroup
		errCh := make(chan error, streams)
		for s := 0; s < streams; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				cs, err := tr.OpenStream(context.Background(), addr, "echo", 1<<20)
				if err != nil {
					errCh <- err
					return
				}
				done := make(chan error, 1)
				go func() {
					for i := 0; i < msgs; i++ {
						m, err := cs.Recv()
						if err != nil {
							done <- fmt.Errorf("stream %d recv %d: %w", s, i, err)
							return
						}
						got := m.(*confMsg)
						if got.ID != s*1000+i {
							done <- fmt.Errorf("stream %d cross-talk: got %d", s, got.ID)
							return
						}
					}
					done <- nil
				}()
				for i := 0; i < msgs; i++ {
					if err := cs.Send(&confMsg{ID: s*1000 + i}); err != nil {
						errCh <- fmt.Errorf("stream %d send %d: %w", s, i, err)
						return
					}
				}
				cs.CloseSend()
				if err := <-done; err != nil {
					errCh <- err
				}
			}(s)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Fatal(err)
		}
	})
}

func TestConformanceInflightAccounting(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		ssCh := make(chan ServerStream, 1)
		release := make(chan struct{})
		srv.RegisterStream("hold", func(_ context.Context, ss ServerStream) error {
			ssCh <- ss
			<-release
			for {
				if _, err := ss.Recv(); err != nil {
					return nil
				}
			}
		})
		cs, err := tr.OpenStream(context.Background(), addr, "hold", 1<<20)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer cs.Close()
		ss := <-ssCh
		if err := cs.Send(&confSized{N: 1, Size: 777}); err != nil {
			t.Fatalf("send: %v", err)
		}
		// The sized message's bytes count against the window until the
		// server Recvs it.
		eventually(t, func() bool { return ss.InflightBytes() == 777 }, "inflight should reach 777")
		close(release)
		eventually(t, func() bool { return ss.InflightBytes() == 0 }, "inflight should drain after Recv")
		cs.CloseSend()
	})
}
