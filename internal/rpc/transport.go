package rpc

import "context"

// Transport is the abstraction every Vortex subsystem talks through: a
// way to host named logical servers and a way to call them, either as
// one-shot unary requests or as long-lived bi-directional streams with
// byte-based flow control.
//
// Two implementations exist:
//
//   - *Network, the in-memory transport: deterministic, with chaos and
//     latency injection — what the chaos, sim and unit-test layers run
//     against;
//   - *TCPTransport, the real-socket transport: length-prefixed
//     CRC32C-framed messages multiplexed over persistent connections,
//     for multi-process clusters.
//
// Both obey the same contract, enforced by the cross-transport
// conformance suite (conformance_test.go). For streams that is by
// construction: both ends of a stream, on either transport, are one type
// (streamEnd, stream.go), and a transport only carries its four moves
// to the peer.
//
//   - Unary returns ErrUnreachable for an unknown/unreachable address
//     and ErrNoMethod for an unknown method, wrapping both with context;
//   - OpenStream fails fast with the same mapping;
//   - stream Send blocks while the flow-control window is exhausted and
//     unblocks when the peer Recvs (window semantics: the window bounds
//     buffered bytes, and an oversize message is admitted once the
//     direction is idle, degrading to lock-step transfer);
//   - a handler returning nil surfaces io.EOF on the client Recv after
//     the response queue drains; a handler error surfaces that error;
//   - cancelling the OpenStream context tears the stream down on both
//     ends;
//   - ClientStream.Close returns only after the handler has (its return
//     has reached the client end, or the connection under the stream has
//     died), so nothing the handler does can follow it;
//   - a message handed out by Recv is released by the stream: the
//     receive queue keeps no reference to it.
type Transport interface {
	// Unary performs one request/response call.
	Unary(ctx context.Context, addr, method string, req any) (any, error)
	// OpenStream establishes a bi-directional stream to addr/method with
	// the given flow-control window in bytes.
	OpenStream(ctx context.Context, addr, method string, window int) (ClientStream, error)
	// Register attaches a server at the logical address addr, replacing
	// any previous one.
	Register(addr string, s *Server)
	// Deregister removes the server at addr (a crashed task); in-flight
	// streams to it fail on their next operation.
	Deregister(addr string)
}

// ClientStream is the client end of a bi-directional stream.
type ClientStream interface {
	// Send transmits one request, blocking while the flow-control window
	// is exhausted.
	Send(m any) error
	// Recv returns the next response, releasing its flow-control credit.
	// It returns io.EOF when the handler finished cleanly and no
	// responses remain.
	Recv() (any, error)
	// CloseSend signals that the client will send no more requests; the
	// server's Recv returns io.EOF after draining.
	CloseSend()
	// Close tears down the stream and waits for the handler to return.
	// A handler must therefore end when its context does.
	Close()
	// Err returns the stream's terminal error, if any (io.EOF for a
	// clean handler completion).
	Err() error
}

// ServerStream is the server end of a bi-directional stream, passed to
// StreamHandlers.
type ServerStream interface {
	// Send transmits one response, blocking while the response-direction
	// flow-control window is exhausted.
	Send(m any) error
	// Recv returns the next request, releasing its flow-control credit.
	// It returns io.EOF after the client calls CloseSend and the queue
	// drains.
	Recv() (any, error)
	// InflightBytes reports the bytes currently counted against the
	// request-direction flow-control window.
	InflightBytes() int
}

var (
	_ Transport = (*Network)(nil)
	_ Transport = (*TCPTransport)(nil)
)
