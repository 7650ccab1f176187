package rpc

import (
	"context"
	"errors"
	"io"
	"sync"
)

// The TCP transport must carry errors across process boundaries without
// breaking the callers' errors.Is / errors.As contracts: the client's
// retry logic rotates on ErrUnreachable, retries in place on ErrDropped,
// and reads typed push-back hints out of *sms.PushBackError. Inside one
// process those checks work by pointer identity; across gob they need a
// codec.
//
// The registry maps stable string codes to either a sentinel error (the
// decoded error wraps the local sentinel, so errors.Is matches and the
// remote message text is preserved) or a typed codec (the concrete error
// value round-trips, so errors.As matches). Packages register their own
// errors from init(): rpc registers its transport sentinels plus the
// context/io terminals below; internal/sms and internal/colossusrpc
// register theirs.

// WireError is the gob-encoded form of an error crossing the transport.
type WireError struct {
	// Code names a registered sentinel or typed codec ("" when the error
	// matched nothing — the decoded error is opaque text).
	Code string
	// Msg is the full remote error text.
	Msg string
	// Typed is the typed codec's payload, when Code names one.
	Typed []byte
}

type typedErrorCodec struct {
	code   string
	encode func(error) ([]byte, bool)
	decode func([]byte) error
}

var (
	errCodecMu   sync.RWMutex
	errSentinels []struct {
		code string
		err  error
	}
	errSentinelMap map[string]error = map[string]error{}
	errTyped       []typedErrorCodec
	errTypedMap    map[string]typedErrorCodec = map[string]typedErrorCodec{}
)

// RegisterErrorCode maps a sentinel error to a stable wire code. Encoding
// matches candidates with errors.Is in registration order; decoding
// produces an error that wraps the local sentinel and preserves the
// remote message text.
func RegisterErrorCode(code string, sentinel error) {
	errCodecMu.Lock()
	defer errCodecMu.Unlock()
	if _, dup := errSentinelMap[code]; dup {
		panic("rpc: duplicate error code " + code)
	}
	errSentinelMap[code] = sentinel
	errSentinels = append(errSentinels, struct {
		code string
		err  error
	}{code, sentinel})
}

// RegisterTypedError installs a typed error codec. encode returns the
// payload and true when it recognizes the error (typically errors.As on
// its concrete type); decode rebuilds the concrete error value. Typed
// codecs are consulted before sentinel codes, so a typed error that also
// matches a sentinel keeps its concrete round-trip.
func RegisterTypedError(code string, encode func(error) ([]byte, bool), decode func([]byte) error) {
	errCodecMu.Lock()
	defer errCodecMu.Unlock()
	if _, dup := errTypedMap[code]; dup {
		panic("rpc: duplicate typed error code " + code)
	}
	c := typedErrorCodec{code: code, encode: encode, decode: decode}
	errTypedMap[code] = c
	errTyped = append(errTyped, c)
}

// encodeWireError converts an error into its wire form (nil stays nil).
func encodeWireError(err error) *WireError {
	if err == nil {
		return nil
	}
	errCodecMu.RLock()
	defer errCodecMu.RUnlock()
	for _, tc := range errTyped {
		if payload, ok := tc.encode(err); ok {
			return &WireError{Code: tc.code, Msg: err.Error(), Typed: payload}
		}
	}
	for _, s := range errSentinels {
		if errors.Is(err, s.err) {
			return &WireError{Code: s.code, Msg: err.Error()}
		}
	}
	return &WireError{Msg: err.Error()}
}

// decodeWireError reverses encodeWireError (nil stays nil).
func decodeWireError(w *WireError) error {
	if w == nil {
		return nil
	}
	errCodecMu.RLock()
	tc, hasTyped := errTypedMap[w.Code]
	sentinel, hasSentinel := errSentinelMap[w.Code]
	errCodecMu.RUnlock()
	if hasTyped && w.Typed != nil {
		if err := tc.decode(w.Typed); err != nil {
			return err
		}
	}
	if hasSentinel {
		return &remoteError{msg: w.Msg, cause: sentinel}
	}
	if w.Msg == "" {
		return errors.New("rpc: unknown remote error")
	}
	return errors.New(w.Msg)
}

// remoteError preserves a remote error's text while unwrapping to the
// local sentinel its wire code named.
type remoteError struct {
	msg   string
	cause error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.cause }

func init() {
	// Transport sentinels and the terminal conditions streams propagate.
	RegisterErrorCode("rpc.unreachable", ErrUnreachable)
	RegisterErrorCode("rpc.nomethod", ErrNoMethod)
	RegisterErrorCode("rpc.closed", ErrClosed)
	RegisterErrorCode("rpc.dropped", ErrDropped)
	RegisterErrorCode("rpc.badmessage", ErrBadMessage)
	RegisterErrorCode("ctx.canceled", context.Canceled)
	RegisterErrorCode("ctx.deadline", context.DeadlineExceeded)
	RegisterErrorCode("io.eof", io.EOF)
}
