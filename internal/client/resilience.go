// Resilience surface of the client: the unified error model, the retry
// policy (per-attempt deadlines, capped exponential backoff with
// jitter, hedged appends), per-append options, and the counters that
// make retry behaviour observable.
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/rpc"
	"vortex/internal/sms"
)

// ErrorCode classifies a client failure.
type ErrorCode string

const (
	// CodeWrongOffset: the pinned append offset does not match the
	// stream's length — another writer got there first (§4.2.2).
	CodeWrongOffset ErrorCode = "WRONG_OFFSET"
	// CodeStreamFinalized: the stream accepts no further appends.
	CodeStreamFinalized ErrorCode = "STREAM_FINALIZED"
	// CodeExhausted: the retry policy ran out of attempts.
	CodeExhausted ErrorCode = "EXHAUSTED"
	// CodeUnavailable: the control or data plane could not be reached.
	CodeUnavailable ErrorCode = "UNAVAILABLE"
	// CodeInvalid: the request itself is bad (payload, schema).
	CodeInvalid ErrorCode = "INVALID"
	// CodeResourceExhausted: admission control shed the request before
	// any durable effect. Always retryable; the error's RetryAfter is
	// the server-suggested minimum wait.
	CodeResourceExhausted ErrorCode = "RESOURCE_EXHAUSTED"
)

// Error is the unified client error: a stable code, the operation that
// failed, whether retrying could help, and the underlying cause.
type Error struct {
	Code      ErrorCode
	Op        string
	Retryable bool
	// RetryAfter, when positive, is the server-suggested minimum wait
	// before retrying (RESOURCE_EXHAUSTED push-back). Callers that see
	// it should not retry sooner.
	RetryAfter time.Duration
	Err        error
}

func (e *Error) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("client: %s: %s: %v", e.Op, e.Code, e.Err)
	}
	return fmt.Sprintf("client: %s: %s", e.Op, e.Code)
}

func (e *Error) Unwrap() error { return e.Err }

// Is maps codes onto the historical sentinel errors, so pre-redesign
// errors.Is checks keep working against the structured form.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrWrongOffset:
		return e.Code == CodeWrongOffset
	case ErrStreamFinalized:
		return e.Code == CodeStreamFinalized
	case ErrExhausted:
		return e.Code == CodeExhausted
	case ErrUnavailable:
		return e.Code == CodeUnavailable
	case ErrResourceExhausted, sms.ErrResourceExhausted:
		return e.Code == CodeResourceExhausted
	}
	return false
}

func newError(code ErrorCode, op string, retryable bool, err error) *Error {
	return &Error{Code: code, Op: op, Retryable: retryable, Err: err}
}

// RetryPolicy governs every retried client operation.
type RetryPolicy struct {
	// MaxAttempts bounds total tries (first attempt included).
	MaxAttempts int
	// InitialBackoff is the delay before the second attempt; each
	// further attempt multiplies it by Multiplier up to MaxBackoff.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	Multiplier     float64
	// Jitter spreads each backoff uniformly in ±Jitter (e.g. 0.2 =
	// ±20%), decorrelating retry storms across writers.
	Jitter float64
	// PerAttemptTimeout bounds one append attempt; zero disables it.
	// The overall call is bounded by ctx (or WithDeadline).
	PerAttemptTimeout time.Duration
	// HedgeDelay, when positive, races a second copy of a slow
	// offset-pinned unary append after this delay; the server's
	// retransmission memo dedupes the loser. Zero disables hedging.
	HedgeDelay time.Duration
	// RetryBudget caps the client's outstanding retry debt: each retry
	// spends one token, each success refunds half a token (up to the
	// cap), and a client out of tokens fails fast instead of joining a
	// retry storm against an overloaded service. Zero takes the default
	// (256); negative disables budgeting.
	RetryBudget int
}

// DefaultRetryPolicy returns the production-like policy.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    6,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     250 * time.Millisecond,
		Multiplier:     2,
		Jitter:         0.2,
		RetryBudget:    256,
	}
}

// withDefaults fills unset fields; a zero policy becomes the default.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p == (RetryPolicy{}) {
		return DefaultRetryPolicy()
	}
	d := DefaultRetryPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = d.InitialBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = d.MaxBackoff
	}
	if p.Multiplier < 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.RetryBudget == 0 {
		p.RetryBudget = d.RetryBudget
	}
	return p
}

// backoffFor returns the jittered delay before the given attempt
// (attempt 1 = first retry). The jitter RNG is seeded from
// Options.Seed, so a seeded client backs off deterministically.
func (c *Client) backoffFor(attempt int) time.Duration {
	pol := c.opts.Retry
	if attempt <= 0 || pol.InitialBackoff <= 0 {
		return 0
	}
	d := float64(pol.InitialBackoff)
	for i := 1; i < attempt; i++ {
		d *= pol.Multiplier
		if pol.MaxBackoff > 0 && d >= float64(pol.MaxBackoff) {
			break
		}
	}
	if pol.MaxBackoff > 0 && d > float64(pol.MaxBackoff) {
		d = float64(pol.MaxBackoff)
	}
	if pol.Jitter > 0 {
		c.rngMu.Lock()
		d *= 1 + pol.Jitter*(2*c.rng.Float64()-1)
		c.rngMu.Unlock()
	}
	return time.Duration(d)
}

// sleepCtx sleeps for d unless ctx ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// retryableErr reports whether another attempt could succeed: transport
// unreachability (a crashed or partitioned task), in-transit message
// loss, and control-plane unavailability are transient; everything else
// is not.
func retryableErr(err error) bool {
	var e *Error
	if errors.As(err, &e) {
		return e.Retryable
	}
	var rre *ReplicatedReadError
	if errors.As(err, &rre) {
		return rre.retryable()
	}
	return errors.Is(err, rpc.ErrUnreachable) ||
		errors.Is(err, rpc.ErrDropped) ||
		errors.Is(err, sms.ErrUnavailable) ||
		errors.Is(err, sms.ErrResourceExhausted)
}

// pushBackHint extracts the server-suggested backoff from an admission
// push-back anywhere in err's chain (zero if none).
func pushBackHint(err error) time.Duration {
	var pb *sms.PushBackError
	if errors.As(err, &pb) {
		return pb.RetryAfter
	}
	var ce *Error
	if errors.As(err, &ce) && ce.Code == CodeResourceExhausted {
		return ce.RetryAfter
	}
	return 0
}

// RetryAfter returns the server-suggested minimum wait carried by a
// RESOURCE_EXHAUSTED push-back anywhere in err's chain (zero if none).
// Callers driving their own retry loops should never retry a shed
// request sooner than this.
func RetryAfter(err error) time.Duration { return pushBackHint(err) }

// takeRetryToken spends one retry-budget token; false means the budget
// is exhausted and the caller should fail fast rather than retry.
func (c *Client) takeRetryToken() bool {
	if c.opts.Retry.RetryBudget < 0 {
		return true
	}
	c.budgetMu.Lock()
	defer c.budgetMu.Unlock()
	if c.budgetTokens < 1 {
		c.budgetExhausted.Add(1)
		return false
	}
	c.budgetTokens--
	return true
}

// creditRetryToken refunds half a token on success, up to the cap, so a
// healthy client regains headroom but a persistently failing one cannot
// sustain an unbounded retry rate.
func (c *Client) creditRetryToken() {
	cap := c.opts.Retry.RetryBudget
	if cap < 0 {
		return
	}
	c.budgetMu.Lock()
	c.budgetTokens += 0.5
	if c.budgetTokens > float64(cap) {
		c.budgetTokens = float64(cap)
	}
	c.budgetMu.Unlock()
}

// AppendOption modifies one append call.
type AppendOption interface {
	applyAppend(*appendConfig)
}

type appendConfig struct {
	offset   int64 // -1 appends at the current end
	deadline time.Duration
}

type offsetOption int64

func (o offsetOption) applyAppend(c *appendConfig) { c.offset = int64(o) }

// AtOffset pins the rows to land at stream offset n — the exactly-once
// mechanism of §4.2.2. Appends racing for the same offset lose with
// CodeWrongOffset.
func AtOffset(n int64) AppendOption { return offsetOption(n) }

type deadlineOption time.Duration

func (d deadlineOption) applyAppend(c *appendConfig) { c.deadline = time.Duration(d) }

// WithDeadline bounds the whole append call — retries, backoff and
// hedges included — by d.
func WithDeadline(d time.Duration) AppendOption { return deadlineOption(d) }

func resolveAppendOpts(opts []AppendOption) appendConfig {
	cfg := appendConfig{offset: -1}
	for _, o := range opts {
		if o != nil {
			o.applyAppend(&cfg)
		}
	}
	return cfg
}

// Metrics is a snapshot of the client's resilience counters.
type Metrics struct {
	// Retries counts append attempts beyond each call's first.
	Retries int64
	// Rotations counts streamlet rotations onto a different server.
	Rotations int64
	// Hedges counts hedge sends; HedgeWins how often the hedge's
	// response arrived first.
	Hedges    int64
	HedgeWins int64
	// SMSRetries counts retried control-plane calls.
	SMSRetries int64
	// ShedPushBacks counts RESOURCE_EXHAUSTED push-backs received (data
	// or control plane); RetryBudgetExhausted counts retries refused
	// because the budget ran dry.
	ShedPushBacks        int64
	RetryBudgetExhausted int64
	// AppendLatency is the end-to-end Append latency distribution
	// (successful calls, retries included).
	AppendLatency *metrics.Histogram
	// ScanLatency is the per-assignment ScanBatch latency
	// distribution (successful scans, cache hits and misses alike).
	ScanLatency *metrics.Histogram
	// Cache is the read cache's counter snapshot (zero when disabled).
	Cache CacheStats
	// Read-session consumption counters: record batches and batch bytes
	// delivered to this client's shard iterators, shard splits it
	// triggered, and checkpoint-resumed shard streams.
	ReadBatches       int64
	ReadBatchBytes    int64
	ShardSplits       int64
	CheckpointResumes int64
}

// Metrics returns a snapshot of the client's resilience counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Retries:              c.retries.Value(),
		Rotations:            c.rotations.Value(),
		Hedges:               c.hedges.Value(),
		HedgeWins:            c.hedgeWins.Value(),
		SMSRetries:           c.smsRetries.Value(),
		ShedPushBacks:        c.shedPushBacks.Value(),
		RetryBudgetExhausted: c.budgetExhausted.Value(),
		AppendLatency:        c.appendLatency.Snapshot(),
		ScanLatency:          c.scanLatency.Snapshot(),
		Cache:                c.cache.Stats(),

		ReadBatches:       c.rsBatches.Value(),
		ReadBatchBytes:    c.rsBytes.Value(),
		ShardSplits:       c.rsSplits.Value(),
		CheckpointResumes: c.rsResumes.Value(),
	}
}

// smsRetry is a unary SMS call retried under the client's policy while
// the failure looks transient (an unreachable task mid-restart,
// placement exhaustion during an outage).
func smsRetry[Req, Resp any](ctx context.Context, c *Client, table meta.TableID, m rpc.Method[Req, Resp], req *Req) (*Resp, error) {
	method := m.Name()
	pol := c.opts.Retry
	attempts := pol.MaxAttempts
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.smsRetries.Add(1)
			if !c.takeRetryToken() {
				break
			}
			// Honor a control-plane push-back hint: never retry sooner
			// than the server asked, whatever the backoff schedule says.
			d := c.backoffFor(attempt)
			if hint := pushBackHint(lastErr); hint > d {
				d = hint
			}
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
		}
		resp, err := CallSMS(ctx, c.net, c.router, table, m, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if errors.Is(err, sms.ErrResourceExhausted) {
			c.shedPushBacks.Add(1)
		}
		if !retryableErr(err) {
			return nil, err
		}
	}
	// A push-back exhausting its attempts stays retryable-typed: the
	// request was shed, not failed, and the caller may try again after
	// the hint.
	if hint := pushBackHint(lastErr); hint > 0 || errors.Is(lastErr, sms.ErrResourceExhausted) {
		return nil, &Error{Code: CodeResourceExhausted, Op: method, Retryable: true, RetryAfter: hint, Err: lastErr}
	}
	// Likewise a transport-loss cause (task unreachable mid-restart,
	// connection reset): SMS control-plane calls are idempotent, so
	// exhausting in-process attempts must not demote the error to
	// terminal — the caller's next attempt is safe.
	if retryableErr(lastErr) {
		return nil, newError(CodeUnavailable, method, true, lastErr)
	}
	return nil, newError(CodeUnavailable, method, false, lastErr)
}

// newRNG seeds the jitter RNG; distinct odd multiplier decorrelates it
// from other consumers of the same seed.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*2654435761 + 97))
}
