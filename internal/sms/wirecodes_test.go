package sms

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"vortex/internal/rpc"
)

func TestPushBackWireRoundTrip(t *testing.T) {
	want := &PushBackError{Scope: "table:t-1", Resource: "bytes", RetryAfter: 1500 * time.Millisecond}
	b, ok := encodePushBack(fmt.Errorf("create stream: %w", want))
	if !ok {
		t.Fatal("a wrapped push-back was not recognized")
	}
	got, _ := decodePushBack(b).(*PushBackError)
	if got == nil || *got != *want {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	if _, ok := encodePushBack(ErrNotFound); ok {
		t.Fatal("encoded an error that is not a push-back")
	}
	// Anything but exactly what the encoder writes decodes to nil, and
	// never panics: truncated at every length, and with a trailing byte.
	for n := 0; n < len(b); n++ {
		if err := decodePushBack(b[:n]); err != nil {
			t.Fatalf("decoded %d of %d bytes to %v", n, len(b), err)
		}
	}
	if err := decodePushBack(append(b, 0)); err != nil {
		t.Fatalf("decoded a payload with a trailing byte to %v", err)
	}
	if err := decodePushBack([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 'x'}); err != nil {
		t.Fatalf("decoded a length beyond the payload to %v", err)
	}
}

// The client reads the retry hint out with errors.As when the SMS task
// lives in another process.
func TestPushBackCrossesTCP(t *testing.T) {
	want := &PushBackError{Scope: "global", Resource: "streamlets", RetryAfter: 40 * time.Millisecond}
	srv := rpc.NewServer()
	srv.RegisterUnary("shed", func(context.Context, any) (any, error) { return nil, want })
	host := rpc.NewTCPTransport()
	defer host.Close()
	host.Register("sms-0", srv)
	hostport, err := host.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	caller := rpc.NewTCPTransport()
	defer caller.Close()
	caller.AddRoute("sms-0", hostport)

	_, err = caller.Unary(context.Background(), "sms-0", "shed", nil)
	var got *PushBackError
	if !errors.As(err, &got) || *got != *want {
		t.Fatalf("got %v, want the push-back %+v", err, want)
	}
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("%v does not match ErrResourceExhausted", err)
	}
}
