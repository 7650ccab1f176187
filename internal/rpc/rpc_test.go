package rpc

import (
	"context"
	"errors"
	"io"
	"testing"
)

type sizedMsg struct {
	id   int
	size int
}

func (m sizedMsg) WireSize() int { return m.size }

func echoServer() *Server {
	s := NewServer()
	s.RegisterUnary("echo", func(_ context.Context, req any) (any, error) {
		return req, nil
	})
	s.RegisterStream("echo", func(_ context.Context, ss ServerStream) error {
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
	return s
}

func TestUnaryRoundTrip(t *testing.T) {
	n := NewNetwork(nil)
	n.Register("server-1", echoServer())
	resp, err := n.Unary(context.Background(), "server-1", "echo", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if resp != "hello" {
		t.Fatalf("resp = %v", resp)
	}
	if _, err := n.Unary(context.Background(), "server-1", "nope", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Unary(context.Background(), "ghost", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnaryConnectionPooling(t *testing.T) {
	n := NewNetwork(nil)
	n.Register("s", echoServer())
	for i := 0; i < 10; i++ {
		if _, err := n.Unary(context.Background(), "s", "echo", i); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.UnaryCalls != 10 {
		t.Fatalf("calls = %d", st.UnaryCalls)
	}
	// Sequential calls set up one connection and reuse it nine times.
	if st.ConnectionSetups != 1 || st.PooledReuses != 9 {
		t.Fatalf("setups = %d, reuses = %d; pooling broken", st.ConnectionSetups, st.PooledReuses)
	}
}

func TestPartitionBlocksTraffic(t *testing.T) {
	n := NewNetwork(nil)
	n.Register("s", echoServer())
	n.SetPartitioned("s", true)
	if _, err := n.Unary(context.Background(), "s", "echo", 1); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	n.SetPartitioned("s", false)
	if _, err := n.Unary(context.Background(), "s", "echo", 1); err != nil {
		t.Fatal(err)
	}
}

func TestStreamDiesOnPartition(t *testing.T) {
	n := NewNetwork(nil)
	n.Register("s", echoServer())
	cs, err := n.OpenStream(context.Background(), "s", "echo", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Send(sizedMsg{id: 1, size: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Recv(); err != nil {
		t.Fatal(err)
	}
	n.SetPartitioned("s", true)
	if err := cs.Send(sizedMsg{id: 2, size: 10}); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send through partition: err = %v", err)
	}
}
