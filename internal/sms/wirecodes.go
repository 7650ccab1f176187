package sms

import (
	"encoding/binary"
	"errors"
	"time"

	"vortex/internal/bin"
	"vortex/internal/rpc"
)

// The client's retry policy classifies SMS errors with errors.Is and
// pulls push-back hints out with errors.As on *PushBackError. Register
// wire codes so both keep working when the SMS task lives in another
// process.
func init() {
	rpc.RegisterErrorCode("sms.notfound", ErrNotFound)
	rpc.RegisterErrorCode("sms.exists", ErrAlreadyExists)
	rpc.RegisterErrorCode("sms.finalized", ErrStreamFinalized)
	rpc.RegisterErrorCode("sms.badrequest", ErrBadRequest)
	rpc.RegisterErrorCode("sms.unavailable", ErrUnavailable)
	rpc.RegisterErrorCode("sms.maskschanged", ErrMasksChanged)
	rpc.RegisterErrorCode("sms.dmlactive", ErrDMLActive)
	rpc.RegisterErrorCode("sms.exhausted", ErrResourceExhausted)

	rpc.RegisterTypedError("sms.pushback", encodePushBack, decodePushBack)
}

// A push-back crosses the wire as its scope and resource, each a uvarint
// length and that many bytes, then the retry hint in nanoseconds as a
// varint.
func encodePushBack(err error) ([]byte, bool) {
	var pb *PushBackError
	if !errors.As(err, &pb) {
		return nil, false
	}
	b := binary.AppendUvarint(nil, uint64(len(pb.Scope)))
	b = append(b, pb.Scope...)
	b = binary.AppendUvarint(b, uint64(len(pb.Resource)))
	b = append(b, pb.Resource...)
	return binary.AppendVarint(b, int64(pb.RetryAfter)), true
}

// decodePushBack returns nil for bytes encodePushBack did not write; the
// caller then falls back to the error's text.
func decodePushBack(b []byte) error {
	r := bin.NewReader(b)
	scope, resource := r.Block(), r.Block()
	retryAfter := r.Varint()
	if r.Err() != nil || r.Len() != 0 {
		return nil
	}
	return &PushBackError{Scope: string(scope), Resource: string(resource), RetryAfter: time.Duration(retryAfter)}
}
