// Admission control for the ingestion control plane (§5.5): token-bucket
// quotas on streamlet creation and table byte rates, with load shedding
// that pushes back on writers instead of queueing them. The SMS is the
// natural choke point — every new stream or streamlet passes through
// GetWritableStreamlet, and heartbeats aggregate per-table byte rates at
// O(servers) cost — so quotas enforced here protect Spanner, placement
// and the Stream Servers from massive-fanout overload without touching
// the per-append fast path.
package sms

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vortex/internal/meta"
	"vortex/internal/truetime"
)

// ErrResourceExhausted is the errors.Is target for admission push-back.
// Concrete failures are *PushBackError values carrying the suggested
// backoff.
var ErrResourceExhausted = errors.New("sms: resource exhausted")

// PushBackError is the typed, retryable load-shedding error: the request
// was rejected by admission control before any durable effect, and the
// server suggests waiting RetryAfter before retrying. errors.Is matches
// ErrResourceExhausted (and the client maps it onto its RESOURCE_EXHAUSTED
// code).
type PushBackError struct {
	// Scope identifies the exhausted budget: "global" or "table:<id>".
	Scope string
	// Resource is what ran out: "streamlets" or "bytes".
	Resource string
	// RetryAfter is the server-suggested backoff: the time until the
	// bucket refills enough to admit one more request.
	RetryAfter time.Duration
}

func (e *PushBackError) Error() string {
	return fmt.Sprintf("sms: resource exhausted: %s %s quota, retry after %v", e.Scope, e.Resource, e.RetryAfter)
}

// Is matches the ErrResourceExhausted sentinel (and keeps the error in
// the client's retryable class via sms.ErrUnavailable? — no: push-back is
// its own class; retryability is decided by the client's typed mapping).
func (e *PushBackError) Is(target error) bool { return target == ErrResourceExhausted }

// Quotas configures admission control for one SMS task. Zero values mean
// "unlimited" for that budget, so the zero Quotas disables admission
// entirely (the pre-overload-protection behaviour).
type Quotas struct {
	// GlobalStreamletsPerSec / TableStreamletsPerSec bound the rate of
	// streamlet creations (new streams, rotations, re-placements) — the
	// control-plane cost of fanout.
	GlobalStreamletsPerSec float64
	TableStreamletsPerSec  float64
	// StreamletBurst is the bucket depth for both creation budgets
	// (default: one second's worth, minimum 1).
	StreamletBurst float64
	// GlobalBytesPerSec / TableBytesPerSec bound append throughput. The
	// SMS debits heartbeat-reported per-table byte deltas and instructs
	// servers to shed over-quota tables for the deficit's refill time.
	GlobalBytesPerSec int64
	TableBytesPerSec  int64
	// ByteBurst is the byte buckets' depth (default: one second's worth).
	ByteBurst int64
	// MaxShed caps one shed instruction's duration so a huge reported
	// backlog cannot black-hole a table (default 2s).
	MaxShed time.Duration
}

// Unlimited reports whether the quotas impose no limits at all.
func (q Quotas) Unlimited() bool {
	return q.GlobalStreamletsPerSec <= 0 && q.TableStreamletsPerSec <= 0 &&
		q.GlobalBytesPerSec <= 0 && q.TableBytesPerSec <= 0
}

// AdmissionStats counts admission decisions on one SMS task.
type AdmissionStats struct {
	// StreamletsAdmitted / StreamletsShed count creation-budget outcomes.
	StreamletsAdmitted int64
	StreamletsShed     int64
	// BytesDebited is the heartbeat-reported append volume seen.
	BytesDebited int64
	// TableSheds counts shed instructions issued to Stream Servers.
	TableSheds int64
}

// bucket is one token bucket refilled from the task's TrueTime clock.
// Tokens may go negative (byte debits are after-the-fact), in which case
// waitFor reports how long the deficit takes to refill.
type bucket struct {
	tokens float64
	last   truetime.Timestamp
}

// refill advances the bucket to now at rate tokens/sec, capped at burst.
func (b *bucket) refill(now truetime.Timestamp, rate, burst float64) {
	if b.last == 0 {
		b.last = now
		b.tokens = burst
		return
	}
	if now <= b.last {
		return
	}
	b.tokens += rate * now.Sub(b.last).Seconds()
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
}

// waitFor returns how long until the bucket holds `need` tokens (zero if
// it already does).
func (b *bucket) waitFor(need, rate float64) time.Duration {
	if b.tokens >= need {
		return 0
	}
	return time.Duration((need - b.tokens) / rate * float64(time.Second))
}

// admission is the per-task admission state.
type admission struct {
	mu    sync.Mutex
	clock truetime.Clock
	q     Quotas

	createGlobal bucket
	createTable  map[meta.TableID]*bucket
	byteGlobal   bucket
	byteTable    map[meta.TableID]*bucket

	stats AdmissionStats
}

func newAdmission(clock truetime.Clock) *admission {
	return &admission{
		clock:       clock,
		createTable: make(map[meta.TableID]*bucket),
		byteTable:   make(map[meta.TableID]*bucket),
	}
}

func (a *admission) setQuotas(q Quotas) {
	a.mu.Lock()
	a.q = q
	// Reset bucket clocks so new rates apply cleanly (raising quotas
	// during recovery should take effect immediately, not after the old
	// deficit drains at the old rate).
	a.createGlobal = bucket{}
	a.byteGlobal = bucket{}
	a.createTable = make(map[meta.TableID]*bucket)
	a.byteTable = make(map[meta.TableID]*bucket)
	a.mu.Unlock()
}

func (a *admission) snapshot() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

func (a *admission) streamletBurst(rate float64) float64 {
	b := a.q.StreamletBurst
	if b <= 0 {
		b = rate
	}
	if b < 1 {
		b = 1
	}
	return b
}

// admitStreamlet spends one creation token from the global and the
// table's bucket. On exhaustion it returns a *PushBackError with the
// refill wait and spends nothing.
func (a *admission) admitStreamlet(table meta.TableID) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	now := a.clock.Now().Latest
	if r := a.q.GlobalStreamletsPerSec; r > 0 {
		a.createGlobal.refill(now, r, a.streamletBurst(r))
		if w := a.createGlobal.waitFor(1, r); w > 0 {
			a.stats.StreamletsShed++
			return &PushBackError{Scope: "global", Resource: "streamlets", RetryAfter: a.capShed(w)}
		}
	}
	if r := a.q.TableStreamletsPerSec; r > 0 {
		tb := a.createTable[table]
		if tb == nil {
			tb = &bucket{}
			a.createTable[table] = tb
		}
		tb.refill(now, r, a.streamletBurst(r))
		if w := tb.waitFor(1, r); w > 0 {
			a.stats.StreamletsShed++
			return &PushBackError{Scope: "table:" + string(table), Resource: "streamlets", RetryAfter: a.capShed(w)}
		}
		tb.tokens--
	}
	if a.q.GlobalStreamletsPerSec > 0 {
		a.createGlobal.tokens--
	}
	a.stats.StreamletsAdmitted++
	return nil
}

// debitBytes charges heartbeat-reported per-table byte deltas against the
// byte-rate buckets and returns, per over-quota table, how long (nanos)
// the reporting servers should shed its appends. Buckets go negative so
// bursts already written are paid back by future shedding — admission is
// after the fact here, which is exactly the paper's model: the data
// plane stays fast, the control plane steers.
func (a *admission) debitBytes(deltas map[meta.TableID]int64) map[meta.TableID]int64 {
	if len(deltas) == 0 {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.q.GlobalBytesPerSec <= 0 && a.q.TableBytesPerSec <= 0 {
		for _, n := range deltas {
			a.stats.BytesDebited += n
		}
		return nil
	}
	now := a.clock.Now().Latest
	var sheds map[meta.TableID]int64
	shed := func(t meta.TableID, w time.Duration) {
		if sheds == nil {
			sheds = make(map[meta.TableID]int64)
		}
		w = a.capShed(w)
		if int64(w) > sheds[t] {
			sheds[t] = int64(w)
			a.stats.TableSheds++
		}
	}
	var total int64
	for t, n := range deltas {
		if n <= 0 {
			continue
		}
		total += n
		a.stats.BytesDebited += n
		if r := a.q.TableBytesPerSec; r > 0 {
			tb := a.byteTable[t]
			if tb == nil {
				tb = &bucket{}
				a.byteTable[t] = tb
			}
			burst := float64(a.q.ByteBurst)
			if burst <= 0 {
				burst = float64(r)
			}
			tb.refill(now, float64(r), burst)
			tb.tokens -= float64(n)
			if tb.tokens < 0 {
				shed(t, tb.waitFor(0, float64(r)))
			}
		}
	}
	if r := a.q.GlobalBytesPerSec; r > 0 && total > 0 {
		burst := float64(a.q.ByteBurst)
		if burst <= 0 {
			burst = float64(r)
		}
		a.byteGlobal.refill(now, float64(r), burst)
		a.byteGlobal.tokens -= float64(total)
		if a.byteGlobal.tokens < 0 {
			// The region is over quota: every reporting table sheds.
			w := a.byteGlobal.waitFor(0, float64(r))
			for t, n := range deltas {
				if n > 0 {
					shed(t, w)
				}
			}
		}
	}
	return sheds
}

func (a *admission) capShed(w time.Duration) time.Duration {
	max := a.q.MaxShed
	if max <= 0 {
		max = 2 * time.Second
	}
	if w > max {
		return max
	}
	if w < time.Millisecond {
		return time.Millisecond
	}
	return w
}

// SetQuotas installs (or replaces) the task's admission quotas. The zero
// Quotas disables admission control.
func (t *Task) SetQuotas(q Quotas) { t.adm.setQuotas(q) }

// AdmissionStats snapshots the task's admission counters.
func (t *Task) AdmissionStats() AdmissionStats { return t.adm.snapshot() }

// ServerLiveness returns the TrueTime timestamp of the last heartbeat
// received from a Stream Server (zero if never heard from). Coalesced
// heartbeats must keep this fresh — a streamlet whose server goes silent
// past the liveness window is a candidate for re-placement.
func (t *Task) ServerLiveness(addr string) truetime.Timestamp {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastSeen[addr]
}
