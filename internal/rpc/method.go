package rpc

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
)

// ErrBadMessage: a well-formed message of the wrong type for its method,
// or none at all. It is a bug at one end, not a transient fault, so
// nothing retries it; the connection that carried it stays up.
var ErrBadMessage = errors.New("rpc: message of the wrong type for its method")

// Method binds a method name to its request and response types, the way
// one gRPC service definition does: handlers and callers go through it,
// and neither sees an untyped message. Declare each method once, with
// NewMethod, beside its message types.
type Method[Req, Resp any] struct{ name string }

// NewMethod declares the method name and registers *Req and *Resp with
// gob, so the TCP transport can carry them inside its frames.
func NewMethod[Req, Resp any](name string) Method[Req, Resp] {
	gob.Register(new(Req))
	gob.Register(new(Resp))
	return Method[Req, Resp]{name: name}
}

// Name is the method's name on the transport.
func (m Method[Req, Resp]) Name() string { return m.name }

// Call performs one unary call of m at addr through t.Unary, so every
// hook a transport has (chaos cut-points, pooling, stats, tracing) sees
// it. A response that is not a non-nil *Resp is ErrBadMessage.
func (m Method[Req, Resp]) Call(ctx context.Context, t Transport, addr string, req *Req) (*Resp, error) {
	resp, err := t.Unary(ctx, addr, m.name, req)
	if err != nil {
		return nil, err
	}
	return checked[Resp](m.name, resp)
}

// Handle serves m on srv with h. A request that is not a non-nil *Req is
// refused with ErrBadMessage before h runs. A nil *Resp goes back as an
// untyped nil, which gob can encode and a nil pointer inside an
// interface it cannot.
func (m Method[Req, Resp]) Handle(srv *Server, h func(context.Context, *Req) (*Resp, error)) {
	srv.RegisterUnary(m.name, func(ctx context.Context, req any) (any, error) {
		r, err := checked[Req](m.name, req)
		if err != nil {
			return nil, err
		}
		resp, err := h(ctx, r)
		if resp == nil {
			return nil, err
		}
		return resp, err
	})
}

// Request takes the next request off the server end of a stream of m.
func (m Method[Req, Resp]) Request(s ServerStream) (*Req, error) { return recv[Req](m.name, s) }

// Response takes the next response off the client end of a stream of m.
func (m Method[Req, Resp]) Response(s ClientStream) (*Resp, error) { return recv[Resp](m.name, s) }

// recv takes the next message off either end of a stream and checks its
// type.
func recv[T any](method string, s interface{ Recv() (any, error) }) (*T, error) {
	msg, err := s.Recv()
	if err != nil {
		return nil, err
	}
	return checked[T](method, msg)
}

// checked returns msg as a *T, or ErrBadMessage when it is anything else
// (a nil *T included).
func checked[T any](method string, msg any) (*T, error) {
	if v, ok := msg.(*T); ok && v != nil {
		return v, nil
	}
	return nil, fmt.Errorf("%w: %s wants %T, got %T", ErrBadMessage, method, (*T)(nil), msg)
}
