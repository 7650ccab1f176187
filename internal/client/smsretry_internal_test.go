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
