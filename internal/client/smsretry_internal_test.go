package client

import (
	"context"
	"errors"
	"testing"

	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/wire"
)

type oneSMS string

func (a oneSMS) SMSFor(meta.TableID) (string, error) { return string(a), nil }

// TestSMSRetryDoesNotRetryBadMessage: a message of the wrong type is the
// sender's or the server's bug, so retrying cannot help; smsRetry must
// fail on the first attempt and not dress the failure up as retryable.
// A dropped request, by contrast, is retried.
func TestSMSRetryDoesNotRetryBadMessage(t *testing.T) {
	for _, tc := range []struct {
		name      string
		answer    func() (any, error)
		wantCalls int
	}{
		{"wrong response type", func() (any, error) { return &wire.GetTableResponse{}, nil }, 1},
		{"refused request", func() (any, error) { return nil, rpc.ErrBadMessage }, 1},
		{"dropped", func() (any, error) { return nil, rpc.ErrDropped }, DefaultRetryPolicy().MaxAttempts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := rpc.NewNetwork(nil)
			srv := rpc.NewServer()
			calls := 0
			srv.RegisterUnary(wire.MethodAcquireLease, func(context.Context, any) (any, error) {
				calls++
				return tc.answer()
			})
			n.Register("sms-0", srv)
			c := New(n, oneSMS("sms-0"), nil, nil, nil, DefaultOptions())
			_, err := smsRetry(context.Background(), c, "t", wire.AcquireLease, &wire.AcquireLeaseRequest{Table: "t"})
			if calls != tc.wantCalls {
				t.Fatalf("%d calls, want %d (err %v)", calls, tc.wantCalls, err)
			}
			if tc.wantCalls > 1 {
				return
			}
			if !errors.Is(err, rpc.ErrBadMessage) || retryableErr(err) {
				t.Fatalf("want a terminal ErrBadMessage, got %v", err)
			}
			if m := c.Metrics(); m.SMSRetries != 0 {
				t.Fatalf("%d SMS retries, want 0", m.SMSRetries)
			}
		})
	}
}

// downFirst routes every table to sms-0, except that its first down
// lookups name an address nothing serves: the SMS task is mid-restart.
type downFirst struct{ down int }

func (r *downFirst) SMSFor(meta.TableID) (string, error) {
	if r.down > 0 {
		r.down--
		return "sms-restarting", nil
	}
	return "sms-0", nil
}

// TestCreateStreamRetriesUnreachableSMS: CreateStream, GetSchema and
// AttachStream ride out an SMS that is unreachable for their first two
// attempts, as smsRetry's other callers do, instead of failing on the
// first.
func TestCreateStreamRetriesUnreachableSMS(t *testing.T) {
	n := rpc.NewNetwork(nil)
	srv := rpc.NewServer()
	info := meta.StreamInfo{ID: "s-1", Table: "t"}
	wire.CreateStream.Handle(srv, func(_ context.Context, r *wire.CreateStreamRequest) (*wire.CreateStreamResponse, error) {
		return &wire.CreateStreamResponse{Stream: info}, nil
	})
	wire.GetTable.Handle(srv, func(context.Context, *wire.GetTableRequest) (*wire.GetTableResponse, error) {
		return &wire.GetTableResponse{}, nil
	})
	wire.GetStream.Handle(srv, func(context.Context, *wire.GetStreamRequest) (*wire.GetStreamResponse, error) {
		return &wire.GetStreamResponse{Stream: info}, nil
	})
	n.Register("sms-0", srv)
	router := &downFirst{}
	c := New(n, router, nil, nil, nil, DefaultOptions())
	ctx := context.Background()
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"CreateStream", func() error { _, err := c.CreateStream(ctx, "t", meta.Unbuffered); return err }},
		{"GetSchema", func() error { _, err := c.GetSchema(ctx, "t"); return err }},
		{"AttachStream", func() error { _, err := c.AttachStream(ctx, "s-1"); return err }},
	} {
		router.down = 2
		before := c.Metrics().SMSRetries
		if err := op.call(); err != nil {
			t.Fatalf("%s with the SMS down for two attempts: %v", op.name, err)
		}
		if got := c.Metrics().SMSRetries - before; got != 2 {
			t.Fatalf("%s: %d SMS retries, want 2", op.name, got)
		}
	}
}
