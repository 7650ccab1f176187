package rpc

import (
	"context"
	"errors"
	"io"
	"sync/atomic"
	"testing"
	"time"
)

// confInc is a typed method over the conformance messages: it answers a
// confMsg with a confSized one higher.
var confInc = NewMethod[confMsg, confSized]("inc")

// sameConnection returns a check that fails t if tr is a TCP caller
// whose one connection to its host has died or been replaced since
// sameConnection was called.
func sameConnection(t *testing.T, tr Transport) func() {
	tcp, ok := tr.(*TCPTransport)
	if !ok {
		return func() {}
	}
	conns := func() []*tcpConn {
		tcp.mu.Lock()
		defer tcp.mu.Unlock()
		var out []*tcpConn
		for _, c := range tcp.conns {
			out = append(out, c)
		}
		return out
	}
	before := conns()
	if len(before) != 1 {
		t.Fatalf("caller holds %d connections, want 1", len(before))
	}
	return func() {
		t.Helper()
		if after := conns(); len(after) != 1 || after[0] != before[0] || after[0].isDead() {
			t.Fatal("the connection that carried a bad message did not stay up")
		}
	}
}

func TestMethodHandleRefusesWrongMessages(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		var ran atomic.Int32
		confInc.Handle(srv, func(_ context.Context, m *confMsg) (*confSized, error) {
			ran.Add(1)
			return &confSized{N: m.ID + 1}, nil
		})
		ctx := context.Background()
		if resp, err := confInc.Call(ctx, tr, addr, &confMsg{ID: 1}); err != nil || resp.N != 2 {
			t.Fatalf("well-formed call: %+v, %v", resp, err)
		}
		check := sameConnection(t, tr)
		bad := []any{&confSized{N: 1}, nil}
		if _, ok := tr.(*Network); ok {
			// Over TCP the caller's encoder refuses a nil pointer inside
			// an interface before anything is sent.
			bad = append(bad, (*confMsg)(nil))
		}
		for _, bad := range bad {
			if _, err := tr.Unary(ctx, addr, confInc.Name(), bad); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("request %T: want ErrBadMessage, got %v", bad, err)
			}
		}
		if n := ran.Load(); n != 1 {
			t.Fatalf("handler ran %d times, want only for the well-formed call", n)
		}
		if resp, err := confInc.Call(ctx, tr, addr, &confMsg{ID: 7}); err != nil || resp.N != 8 {
			t.Fatalf("call after the bad ones: %+v, %v", resp, err)
		}
		check()
	})
}

// A typed handler's `return nil, err` must reach the caller as err: a nil
// *Resp inside the response's interface is what gob cannot encode.
func TestMethodHandleReturnsNilResponseUntyped(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		refuse := errors.New("refused by the handler")
		confInc.Handle(srv, func(_ context.Context, m *confMsg) (*confSized, error) {
			switch m.ID {
			case 0:
				return nil, refuse
			case 1:
				return nil, nil
			}
			return &confSized{N: m.ID + 1}, nil
		})
		ctx := context.Background()
		if _, err := confInc.Call(ctx, tr, addr, &confMsg{ID: 2}); err != nil {
			t.Fatal(err)
		}
		check := sameConnection(t, tr)
		_, err := confInc.Call(ctx, tr, addr, &confMsg{ID: 0})
		if err == nil || err.Error() != refuse.Error() {
			t.Fatalf("want the handler's error, got %v", err)
		}
		if _, err := confInc.Call(ctx, tr, addr, &confMsg{ID: 1}); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("no response and no error: want ErrBadMessage, got %v", err)
		}
		check()
	})
}

func TestMethodCallRefusesWrongResponse(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		var answer any
		srv.RegisterUnary(confInc.Name(), func(context.Context, any) (any, error) { return answer, nil })
		for _, answer = range []any{&confMsg{ID: 1}, nil, "a string"} {
			if resp, err := confInc.Call(context.Background(), tr, addr, &confMsg{}); !errors.Is(err, ErrBadMessage) || resp != nil {
				t.Fatalf("answer %T: want ErrBadMessage, got %+v, %v", answer, resp, err)
			}
		}
	})
}

func TestMethodStreamRefusesWrongMessages(t *testing.T) {
	forEachTransport(t, func(t *testing.T, tr Transport, addr string, srv *Server) {
		// The handler answers each request with the response it was told
		// to send: the method's type, or a message of another type.
		srv.RegisterStream(confInc.Name(), func(_ context.Context, ss ServerStream) error {
			for {
				m, err := confInc.Request(ss)
				if err == io.EOF {
					return nil
				}
				if err != nil {
					return err
				}
				if m.Body == "wrong" {
					err = ss.Send(&confMsg{ID: m.ID})
				} else {
					err = ss.Send(&confSized{N: m.ID + 1})
				}
				if err != nil {
					return err
				}
			}
		})
		open := func() ClientStream {
			t.Helper()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			t.Cleanup(cancel)
			cs, err := tr.OpenStream(ctx, addr, confInc.Name(), 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cs.Close)
			return cs
		}

		cs := open()
		if err := cs.Send(&confMsg{ID: 1}); err != nil {
			t.Fatal(err)
		}
		if resp, err := confInc.Response(cs); err != nil || resp.N != 2 {
			t.Fatalf("well-formed exchange: %+v, %v", resp, err)
		}
		if err := cs.Send(&confMsg{ID: 2, Body: "wrong"}); err != nil {
			t.Fatal(err)
		}
		if _, err := confInc.Response(cs); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("response of the wrong type: want ErrBadMessage, got %v", err)
		}

		for _, bad := range []any{&confSized{N: 1}, nil} {
			cs := open()
			if err := cs.Send(bad); err != nil {
				t.Fatal(err)
			}
			if _, err := confInc.Response(cs); !errors.Is(err, ErrBadMessage) {
				t.Fatalf("request %T: want ErrBadMessage, got %v", bad, err)
			}
		}
	})
}
