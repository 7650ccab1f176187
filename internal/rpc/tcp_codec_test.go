package rpc

// The per-connection codec's own fault surface: a connection's two gob
// streams are stateful, so a message that cannot be encoded, a buffer
// reused too early or a hostile byte string must each end in the
// ErrDropped contract and never in a peer that silently mis-decodes.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// confBlob is shaped like the storage messages that dominate the wire:
// a few scalars and one opaque byte payload.
type confBlob struct {
	Seq     int
	Payload []byte
}

func (m *confBlob) WireSize() int { return len(m.Payload) }

// confBox carries an interface value, as storage messages with `any`
// fields do.
type confBox struct {
	V any
}

// confUnregistered is deliberately never gob-registered.
type confUnregistered struct {
	X int
}

func init() {
	gob.Register(&confBlob{})
	gob.Register(&confBox{})
}

func blobOf(seq, size int, fill byte) *confBlob {
	return &confBlob{Seq: seq, Payload: bytes.Repeat([]byte{fill}, size)}
}

func echoStream(_ context.Context, ss ServerStream) error {
	for {
		m, err := ss.Recv()
		if err != nil {
			return nil
		}
		if err := ss.Send(m); err != nil {
			return nil
		}
	}
}

func TestTCPUnencodableRequestFailsOnlyItsConnection(t *testing.T) {
	caller, _, srv := newTCPPair(t)
	srv.RegisterUnary("echo", func(_ context.Context, req any) (any, error) { return req, nil })
	entered := make(chan struct{}, 4)
	srv.RegisterUnary("hang", func(ctx context.Context, _ any) (any, error) {
		entered <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	var inflight sync.WaitGroup
	inflightErrs := make(chan error, cap(entered))
	for i := 0; i < cap(entered); i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			_, err := caller.Unary(ctx, "task", "hang", &confMsg{})
			inflightErrs <- err
		}()
	}
	for i := 0; i < cap(entered); i++ {
		<-entered
	}

	// confBox is registered, so its descriptor is encoded — and counted
	// as sent — before the encoder reaches the value it cannot name.
	_, err := caller.Unary(ctx, "task", "echo", &confBox{V: confUnregistered{X: 1}})
	if err == nil || errors.Is(err, ErrUnreachable) || errors.Is(err, ErrDropped) {
		t.Fatalf("want a non-retryable encode error, got %v", err)
	}
	if !strings.Contains(err.Error(), "confUnregistered") {
		t.Fatalf("error does not name the offending type: %v", err)
	}

	// Calls already on that connection may have been acted on: retryable.
	inflight.Wait()
	close(inflightErrs)
	for err := range inflightErrs {
		if err != nil && !errors.Is(err, ErrDropped) {
			t.Fatalf("in-flight call: want nil or ErrDropped, got %v", err)
		}
	}

	// The first legitimate confBox goes out on a fresh connection whose
	// encoder sends the descriptor the old one only believed it had sent.
	resp, err := caller.Unary(ctx, "task", "echo", &confBox{V: &confMsg{ID: 5}})
	if err != nil {
		t.Fatalf("call after encode failure: %v", err)
	}
	if got, ok := resp.(*confBox).V.(*confMsg); !ok || got.ID != 5 {
		t.Fatalf("bad resp %+v", resp)
	}
}

func TestTCPUnencodableResponseDropsTheCall(t *testing.T) {
	caller, _, srv := newTCPPair(t)
	srv.RegisterUnary("bad", func(context.Context, any) (any, error) {
		return &confBox{V: confUnregistered{X: 1}}, nil
	})
	srv.RegisterUnary("echo", func(_ context.Context, req any) (any, error) { return req, nil })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	// The host cannot answer; the caller must hear so, not wait forever.
	if _, err := caller.Unary(ctx, "task", "bad", &confMsg{}); !errors.Is(err, ErrDropped) {
		t.Fatalf("want ErrDropped, got %v", err)
	}
	if _, err := caller.Unary(ctx, "task", "echo", &confBox{V: &confMsg{ID: 6}}); err != nil {
		t.Fatalf("call after the host's encode failure: %v", err)
	}
}

func TestTCPDecodedBytesDoNotAliasReadBuffer(t *testing.T) {
	caller, _, srv := newTCPPair(t)
	srv.RegisterStream("pairs", func(_ context.Context, ss ServerStream) error {
		first, err := ss.Recv()
		if err != nil {
			return err
		}
		second, err := ss.Recv() // decoded through the same connection buffers
		if err != nil {
			return err
		}
		if p := first.(*confBlob).Payload; !bytes.Equal(p, bytes.Repeat([]byte{0xAA}, len(p))) {
			return errors.New("host: first payload changed when the second was decoded")
		}
		if err := ss.Send(first); err != nil {
			return err
		}
		return ss.Send(second)
	})
	cs, err := caller.OpenStream(context.Background(), "task", "pairs", 1<<20)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer cs.Close()
	const size = 1400 // both fit the connection's payload buffer
	for i, fill := range []byte{0xAA, 0xBB} {
		if err := cs.Send(blobOf(i, size, fill)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	first, err := cs.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	second, err := cs.Recv()
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !bytes.Equal(first.(*confBlob).Payload, bytes.Repeat([]byte{0xAA}, size)) ||
		!bytes.Equal(second.(*confBlob).Payload, bytes.Repeat([]byte{0xBB}, size)) {
		t.Fatal("caller: a decoded payload aliases the connection's read buffer")
	}
}

func TestInboxReleasesDeliveredMessages(t *testing.T) {
	e := newStreamEnd(1 << 10)
	e.peer = newStreamEnd(1 << 10) // an end is a streamPeer; this one only takes the credit
	e.deliver("a")
	e.deliver("b")
	backing := e.inbox
	if m, err := e.Recv(); m != "a" || err != nil || len(e.inbox) != 1 {
		t.Fatalf("recv = %v, %v, %d left", m, err, len(e.inbox))
	}
	if backing[0] != nil {
		t.Fatal("the slot of a delivered message still references it")
	}
	if m, err := e.Recv(); m != "b" || err != nil || e.inbox != nil {
		t.Fatalf("recv = %v, %v, inbox %v; a drained inbox must let go of its array", m, err, e.inbox)
	}
	if n := e.InflightBytes(); n != 0 {
		t.Fatalf("%d bytes still counted against a drained inbox", n)
	}
}

// loopConn hands every Write back to the next Reads: one connection's
// frames become another's input without a socket in between.
type loopConn struct {
	net.Conn
	r bytes.Reader
}

func (l *loopConn) Write(p []byte) (int, error) { l.r.Reset(p); return len(p), nil }
func (l *loopConn) Read(p []byte) (int, error)  { return l.r.Read(p) }
func (l *loopConn) Close() error                { return nil }

// conversation returns the bytes a dialing connection writes for one
// unary call and one short stream, every frame type a host can receive.
func conversation() []byte {
	tr := NewTCPTransport()
	defer tr.Close()
	c := newTCPConn(tr, &loopConn{}, "")
	var out []byte
	for _, fr := range []struct {
		typ  frameType
		id   uint32
		body any
	}{
		{ftUnaryReq, 1, &tcpUnaryReq{Addr: "task", Method: "echo", M: &confMsg{ID: 1, Body: "x"}}},
		{ftUnaryCancel, 1, nil},
		{ftStreamOpen, 2, &tcpStreamOpen{Addr: "task", Method: "echo", Window: 1 << 10}},
		{ftStreamMsg, 2, &tcpStreamMsg{M: blobOf(1, 64, 0xCC)}},
		{ftWindow, 2, &tcpWindow{Bytes: 64}},
		{ftCloseSend, 2, nil},
		{ftReset, 2, &tcpReset{Err: encodeWireError(ErrClosed)}},
	} {
		if err := c.writeFrame(fr.typ, fr.id, fr.body); err != nil {
			panic(err)
		}
		out = append(out, c.wbuf.Bytes()...)
	}
	return out
}

// hugeClaim is the opening of a frame whose header promises the largest
// payload the format allows and whose sender then delivers a few bytes.
func hugeClaim() []byte {
	b := appendFrame(nil, ftUnaryReq, 1, []byte("a few bytes"))
	binary.BigEndian.PutUint32(b[8:12], maxFramePayload)
	return b
}

// FuzzConnFrames writes an arbitrary byte string to a host connection's
// socket and hangs up. Whatever the bytes — valid frames, frames whose
// payloads are not the gob the frame type promises, garbage — the read
// loop must not panic or hang, and must leave the connection failed
// with an ErrDropped-class error once the input ends.
func FuzzConnFrames(f *testing.F) {
	valid := conversation()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[frameHeaderLen+5:]) // starts mid-frame
	// Gob damage under a checksum that matches: only the decoder can object.
	first, _, err := decodeFrame(valid)
	if err != nil {
		f.Fatal(err)
	}
	damaged := append([]byte(nil), first.payload...)
	damaged[3] ^= 0x40
	f.Add(appendFrame(nil, first.typ, first.id, damaged))
	// A well-framed payload that is not a gob message at all.
	f.Add(appendFrame(nil, ftUnaryReq, 1, []byte("not gob")))
	// A stream message whose type descriptors never crossed this connection.
	f.Add(valid[bytes.LastIndex(valid, []byte{frameMagic0, frameMagic1, frameVersion, byte(ftStreamMsg)}):])
	f.Add([]byte("this is not a vortex frame at all--------"))
	f.Add(hugeClaim()) // a header promising 256 MiB, then hang-up

	f.Fuzz(func(t *testing.T, b []byte) {
		tr := NewTCPTransport()
		defer tr.Close()
		srv := NewServer()
		srv.RegisterUnary("echo", func(_ context.Context, req any) (any, error) { return req, nil })
		srv.RegisterStream("echo", echoStream)
		tr.Register("task", srv)

		peer, nc := net.Pipe()
		c := newTCPConn(tr, nc, "")
		done := make(chan struct{})
		go func() {
			c.readLoop()
			close(done)
		}()
		go io.Copy(io.Discard, peer) // a pipe has no buffer: take whatever the host answers
		peer.Write(b)                // fails early if the host has already hung up
		peer.Close()
		hung := time.NewTimer(10 * time.Second)
		defer hung.Stop()
		select {
		case <-done:
		case <-hung.C:
			t.Fatal("read loop did not end after its input did")
		}
		c.mu.Lock()
		err := c.deadErr
		c.mu.Unlock()
		if !errors.Is(err, ErrDropped) {
			t.Fatalf("connection ended with %v, want an ErrDropped-class error", err)
		}
	})
}

// The codec and transport micro-benchmarks ROADMAP asked for: allocs/op
// is the number to watch, since per-message gob state was the cost.

// BenchmarkFrameCodec encodes one message into a frame on one
// connection and reads, verifies and decodes it on another: everything
// writeFrame and readLoop do to a message except the socket.
func BenchmarkFrameCodec(b *testing.B) {
	bodies := []struct {
		name string
		typ  frameType
		body any
		into func() any
	}{
		{"append-1.4KB", ftUnaryReq, &tcpUnaryReq{Addr: "ss-alpha-0", Method: "Append", M: blobOf(1, 1400, 0xAB)}, func() any { return new(tcpUnaryReq) }},
		{"window", ftWindow, &tcpWindow{Bytes: 1400}, func() any { return new(tcpWindow) }},
	}
	for _, bc := range bodies {
		b.Run(bc.name, func(b *testing.B) {
			tr := NewTCPTransport()
			defer tr.Close()
			lc := &loopConn{}
			w, r := newTCPConn(tr, lc, ""), newTCPConn(tr, lc, "")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.writeFrame(bc.typ, 1, bc.body); err != nil {
					b.Fatal(err)
				}
				fr, err := readFrame(r.br, r.rbuf)
				if err != nil {
					b.Fatal(err)
				}
				if err := r.decode(fr, bc.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTCPUnary(b *testing.B) {
	for _, bs := range []struct {
		name string
		size int
	}{
		{"append-1.4KB", 1400},    // an AppendRequest of 16 rows
		{"read-256KB", 256 << 10}, // a ReadRowsResponse batch
	} {
		b.Run(bs.name, func(b *testing.B) {
			caller, _, srv := newTCPPair(b)
			srv.RegisterUnary("echo", func(_ context.Context, req any) (any, error) { return req, nil })
			ctx := context.Background()
			msg := blobOf(1, bs.size, 0xAB)
			if _, err := caller.Unary(ctx, "task", "echo", msg); err != nil { // dial outside the timing
				b.Fatal(err)
			}
			b.SetBytes(int64(2 * bs.size)) // the payload crosses the socket twice
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := caller.Unary(ctx, "task", "echo", msg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamPingPong is one append-sized message each way per
// iteration plus the credit each Recv returns — over TCP, four frames;
// in memory, the path every ingest append and read-session batch takes.
func BenchmarkStreamPingPong(b *testing.B) {
	for _, target := range conformanceTargets() {
		b.Run(target.name, func(b *testing.B) {
			srv := NewServer()
			srv.RegisterStream("echo", echoStream)
			tr, addr := target.make(b, srv)
			cs, err := tr.OpenStream(context.Background(), addr, "echo", 1<<20)
			if err != nil {
				b.Fatal(err)
			}
			defer cs.Close()
			msg := blobOf(1, 1400, 0xAB)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cs.Send(msg); err != nil {
					b.Fatal(err)
				}
				if _, err := cs.Recv(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
