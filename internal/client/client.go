// Package client implements the Vortex thick client library (§5.4): the
// write path (stream creation, pipelined appends with offset validation,
// retries that rotate streamlets across Stream Servers, schema refresh,
// adaptive unary/bi-di connections) and the read path (direct-Colossus
// fragment reads, commit-rule tail handling, reconciliation of the final
// append, decryption and decompression).
package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/disktier"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// Sentinel errors surfaced by the client API. Structured failures are
// *Error values whose Is method matches these, so errors.Is works on
// both forms.
var (
	ErrWrongOffset     = errors.New("client: append offset does not match stream length")
	ErrStreamFinalized = errors.New("client: stream is finalized")
	ErrExhausted       = errors.New("client: retries exhausted")
	ErrUnavailable     = errors.New("client: service unavailable")
	// ErrResourceExhausted matches admission-control push-back: the
	// request was shed before any durable effect and may be retried
	// after the error's RetryAfter hint.
	ErrResourceExhausted = errors.New("client: resource exhausted")
)

// Router resolves the SMS task for a table (Slicer-backed, §5.2.1).
type Router interface {
	SMSFor(table meta.TableID) (string, error)
}

// Options configures a Client.
type Options struct {
	// ForceUnary/ForceBidi pin the connection type (for experiments).
	ForceUnary bool
	ForceBidi  bool
	// Retry governs append and control-plane retries; zero fields take
	// DefaultRetryPolicy values.
	Retry RetryPolicy
	// Seed makes backoff jitter deterministic (tests, simulations).
	Seed int64
	// ReadCacheBytes bounds the snapshot-safe fragment read cache; 0
	// (the default) disables caching and every scan reads Colossus.
	ReadCacheBytes int64
	// DiskCacheDir/DiskCacheBytes configure an on-disk middle tier under
	// the RAM cache: raw fragment bytes spill to DiskCacheDir (bounded to
	// DiskCacheBytes, LRU) and a RAM miss falls through to disk before
	// paying a Colossus fetch. Both must be set to enable the tier.
	DiskCacheDir   string
	DiskCacheBytes int64
}

// DefaultOptions returns production-like client options.
func DefaultOptions() Options {
	return Options{Retry: DefaultRetryPolicy()}
}

const (
	// unaryAppendThreshold is the number of appends on a stream before
	// the client switches from pooled unary calls to a persistent
	// bi-directional connection (§5.4.2: most streams are small, hot
	// streams deserve a dedicated connection).
	unaryAppendThreshold = 3
	// flowControlWindow is the bi-di stream's in-flight byte budget.
	flowControlWindow = 16 << 20
)

// Client is a Vortex client handle. It is safe for concurrent use; each
// Stream it creates is owned by one writer at a time (the paper's model:
// each client appends to its own dedicated stream).
type Client struct {
	net     rpc.Transport
	router  Router
	region  colossus.Store
	keyring *blockenc.Keyring
	clock   truetime.Clock
	opts    Options

	sealer *blockenc.Sealer

	rngMu sync.Mutex
	rng   *rand.Rand

	retries         metrics.Counter
	rotations       metrics.Counter
	hedges          metrics.Counter
	hedgeWins       metrics.Counter
	smsRetries      metrics.Counter
	shedPushBacks   metrics.Counter
	budgetExhausted metrics.Counter
	appendLatency   *metrics.Histogram
	scanLatency     *metrics.Histogram

	// budgetTokens is the retry-budget token bucket (RetryPolicy.
	// RetryBudget); shared across the client's streams so the cap
	// bounds the whole process's retry debt.
	budgetMu     sync.Mutex
	budgetTokens float64

	// Read-session consumption counters, fed by the readsession package
	// through ObserveReadSession.
	rsBatches metrics.Counter
	rsBytes   metrics.Counter
	rsSplits  metrics.Counter
	rsResumes metrics.Counter

	// cache is the snapshot-safe fragment read cache; nil when disabled
	// (a nil *ReadCache no-ops every method).
	cache *ReadCache

	// flight coalesces concurrent miss fills per fragment path so cold
	// scans never stampede Colossus.
	flight flightGroup

	mu      sync.Mutex
	schemas map[meta.TableID]*schema.Schema
}

// New returns a Client.
func New(net rpc.Transport, router Router, region colossus.Store, keyring *blockenc.Keyring, clock truetime.Clock, opts Options) *Client {
	opts.Retry = opts.Retry.withDefaults()
	var disk *disktier.Tier
	if opts.DiskCacheDir != "" && opts.DiskCacheBytes > 0 {
		// New cannot return an error; an unusable cache directory simply
		// disables the tier.
		disk, _ = disktier.Open(opts.DiskCacheDir, opts.DiskCacheBytes)
	}
	return &Client{
		budgetTokens:  float64(opts.Retry.RetryBudget),
		net:           net,
		router:        router,
		region:        region,
		keyring:       keyring,
		sealer:        blockenc.NewSealer(keyring),
		clock:         clock,
		opts:          opts,
		rng:           newRNG(opts.Seed),
		appendLatency: metrics.NewLatencyHistogram(),
		scanLatency:   metrics.NewLatencyHistogram(),
		cache:         NewTiered(opts.ReadCacheBytes, disk),
		schemas:       make(map[meta.TableID]*schema.Schema),
	}
}

// ReadCache returns the client's fragment read cache, or nil when the
// client was built without ReadCacheBytes. Region wiring registers it
// for GC-driven invalidation.
func (c *Client) ReadCache() *ReadCache { return c.cache }

// CallSMS routes table to its SMS task and calls m there.
func CallSMS[Req, Resp any](ctx context.Context, net rpc.Transport, router Router, table meta.TableID, m rpc.Method[Req, Resp], req *Req) (*Resp, error) {
	addr, err := router.SMSFor(table)
	if err != nil {
		return nil, err
	}
	return m.Call(ctx, net, addr, req)
}

// CreateTable creates a table.
func (c *Client) CreateTable(ctx context.Context, table meta.TableID, s *schema.Schema) error {
	_, err := CallSMS(ctx, c.net, c.router, table, wire.CreateTable, &wire.CreateTableRequest{Table: table, Schema: s})
	return err
}

// GetSchema fetches (and caches) a table's current schema, retried
// through a transient SMS failure.
func (c *Client) GetSchema(ctx context.Context, table meta.TableID) (*schema.Schema, error) {
	resp, err := smsRetry(ctx, c, table, wire.GetTable, &wire.GetTableRequest{Table: table})
	if err != nil {
		return nil, err
	}
	sc := resp.Schema
	c.mu.Lock()
	c.schemas[table] = sc
	c.mu.Unlock()
	return sc, nil
}

// UpdateSchema adds a field to the table schema (§5.4.1).
func (c *Client) UpdateSchema(ctx context.Context, table meta.TableID, f *schema.Field) (*schema.Schema, error) {
	resp, err := smsRetry(ctx, c, table, wire.UpdateSchema, &wire.UpdateSchemaRequest{Table: table, Field: f})
	if err != nil {
		return nil, err
	}
	sc := resp.Schema
	c.mu.Lock()
	c.schemas[table] = sc
	c.mu.Unlock()
	return sc, nil
}

// Stream is a writable Vortex stream handle (§4.1). Not safe for
// concurrent use: a stream has a single append point.
type Stream struct {
	c      *Client
	info   meta.StreamInfo
	schema *schema.Schema

	sl    *meta.StreamletInfo
	epoch int64

	appendsSeen  int
	lastBatchSeq int64
	conn         rpc.ClientStream
	connServer   string
	pending      []*PendingAppend
	pendingMu    sync.Mutex

	// noRetryBefore floors the next attempt per destination server: a
	// RESOURCE_EXHAUSTED push-back's hint from server A must delay the
	// next attempt against A, and only A — rotated or hedged attempts
	// against other servers keep their own backoff state.
	noRetryBefore map[string]time.Time

	finalized bool
}

// CreateStream creates a stream on a table (§4.2.1), retried through a
// transient SMS failure: a create whose answer was lost and is made
// again leaves only an empty stream behind.
func (c *Client) CreateStream(ctx context.Context, table meta.TableID, typ meta.StreamType) (*Stream, error) {
	r, err := smsRetry(ctx, c, table, wire.CreateStream, &wire.CreateStreamRequest{Table: table, Type: typ})
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, info: r.Stream, schema: r.Schema}, nil
}

// AttachStream opens a handle to an existing stream (e.g. a re-delivered
// Dataflow worker reattaching to its dedicated stream, §7.4). The handle
// resumes at the stream's current length. Both its SMS reads are
// retried through a transient failure.
func (c *Client) AttachStream(ctx context.Context, id meta.StreamID) (*Stream, error) {
	resp, err := smsRetry(ctx, c, "", wire.GetStream, &wire.GetStreamRequest{Stream: id})
	if err != nil {
		return nil, err
	}
	info := resp.Stream
	sc, err := c.GetSchema(ctx, info.Table)
	if err != nil {
		return nil, err
	}
	return &Stream{c: c, info: info, schema: sc, finalized: info.Finalized}, nil
}

// Info returns the stream's metadata.
func (s *Stream) Info() meta.StreamInfo { return s.info }

// ensureStreamlet acquires a writable streamlet from the SMS.
func (s *Stream) ensureStreamlet(ctx context.Context, exclude string) error {
	r, err := smsRetry(ctx, s.c, s.info.Table, wire.GetWritableStreamlet, &wire.GetWritableStreamletRequest{
		Stream:        s.info.ID,
		ExcludeServer: exclude,
	})
	if err != nil {
		return err
	}
	sl := r.Streamlet
	s.sl = &sl
	s.epoch = r.Epoch
	if r.Schema.Version > s.schema.Version {
		s.schema = r.Schema
	}
	s.closeConn()
	return nil
}

func (s *Stream) closeConn() {
	if s.conn != nil {
		s.conn.Close()
		s.conn = nil
		s.connServer = ""
	}
	s.failPending(fmt.Errorf("%w: connection closed", rpc.ErrClosed))
}

// Append appends rows and returns the stream offset of the first row.
// It retries under the client's RetryPolicy — capped exponential
// backoff with jitter, per-attempt deadlines, streamlet rotation across
// Stream Server failures, optional hedging — and refreshes the schema
// when stale. Offset conflicts surface as CodeWrongOffset
// (errors.Is(err, ErrWrongOffset)).
func (s *Stream) Append(ctx context.Context, rows []schema.Row, opts ...AppendOption) (int64, error) {
	if s.finalized {
		return 0, newError(CodeStreamFinalized, "append", false, nil)
	}
	cfg := resolveAppendOpts(opts)
	if cfg.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.deadline)
		defer cancel()
	}
	if err := s.validateRows(ctx, rows); err != nil {
		return 0, err
	}
	payload := wire.AppendBlock(nil, rows)
	crc := blockenc.Checksum(payload)
	t0 := time.Now()

	pol := s.c.opts.Retry
	var lastErr error
	sameStreamletFails := 0
	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !s.c.takeRetryToken() {
				// Budget dry: fail fast rather than join a retry storm.
				break
			}
			s.c.retries.Add(1)
			// The backoff never undercuts a push-back hint: the floor is
			// the later of this destination's no-retry-before mark and
			// the hint carried by the last error.
			d := s.c.backoffFor(attempt)
			if w := s.retryFloor(); w > d {
				d = w
			}
			if w := pushBackHint(lastErr); w > d {
				d = w
			}
			if err := sleepCtx(ctx, d); err != nil {
				return 0, newError(CodeUnavailable, "append", false, err)
			}
		}
		if s.sl == nil {
			exclude := ""
			if attempt > 0 && s.connServer != "" {
				exclude = s.connServer
			}
			if err := s.ensureStreamlet(ctx, exclude); err != nil {
				if retryableErr(err) && attempt < pol.MaxAttempts-1 {
					lastErr = err
					continue
				}
				return 0, err
			}
		}
		req := &wire.AppendRequest{
			Streamlet:            s.sl.ID,
			Payload:              payload,
			CRC:                  crc,
			ExpectedStreamOffset: cfg.offset,
			SchemaVersion:        s.schema.Version,
			// Flag retransmissions so the server may replay its last ack
			// (the write landed, the response was lost) instead of
			// reporting a fresh-duplicate offset conflict.
			Retry: attempt > 0,
		}
		resp, err := s.sendHedged(ctx, req, cfg.offset >= 0)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return 0, newError(CodeUnavailable, "append", false, lastErr)
			}
			if errors.Is(err, rpc.ErrUnreachable) || sameStreamletFails >= 1 {
				// The server is gone (or keeps failing): reconcile the
				// streamlet and place a fresh one elsewhere (§5.4).
				s.rotate(ctx)
				sameStreamletFails = 0
			} else {
				// First failure on this streamlet: retry the same server.
				// If the write landed and only the ack was lost, its
				// retransmission memo replays the ack (exactly-once).
				sameStreamletFails++
				s.closeConn()
			}
			continue
		}
		sameStreamletFails = 0
		if resp.Error == "" {
			s.appendsSeen++
			s.lastBatchSeq = int64(resp.Timestamp)
			s.c.appendLatency.Record(time.Since(t0))
			s.c.creditRetryToken()
			return resp.StreamOffset, nil
		}
		code := resp.Error
		if i := strings.IndexByte(code, ':'); i >= 0 {
			code = code[:i]
		}
		switch code {
		case wire.ErrCodeWrongOffset:
			return 0, newError(CodeWrongOffset, "append", false, errors.New(resp.Error))
		case wire.ErrCodeSchemaStale:
			// Fetch the latest schema and retry (§5.4.1).
			sc, err := s.c.GetSchema(ctx, s.info.Table)
			if err != nil {
				return 0, err
			}
			s.schema = sc
			if err := validate(sc, rows); err != nil {
				return 0, err
			}
			lastErr = errors.New(resp.Error)
		case wire.ErrCodeBadPayload:
			return 0, newError(CodeInvalid, "append", false, errors.New(resp.Error))
		case wire.ErrCodeResourceExhausted:
			// Admission push-back (§5.5). The quota is per table, not per
			// server, so rotating elsewhere would only add control-plane
			// load to an overload — stay put and honor the hint against
			// this destination.
			hint := time.Duration(resp.RetryAfterNanos)
			s.recordPushBack(s.sl.Server, hint)
			s.c.shedPushBacks.Add(1)
			lastErr = &Error{Code: CodeResourceExhausted, Op: "append", Retryable: true, RetryAfter: hint, Err: errors.New(resp.Error)}
		default: // STREAMLET_CLOSED, UNKNOWN_STREAMLET, IO_ERROR
			lastErr = errors.New(resp.Error)
			s.rotate(ctx)
		}
	}
	// Shed appends stay retryable-typed even out of attempts (or budget):
	// nothing was written, and the caller may retry after the hint.
	var ce *Error
	if errors.As(lastErr, &ce) && ce.Code == CodeResourceExhausted {
		hint := ce.RetryAfter
		if w := s.retryFloor(); w > hint {
			hint = w
		}
		return 0, &Error{Code: CodeResourceExhausted, Op: "append", Retryable: true, RetryAfter: hint, Err: lastErr}
	}
	// A transport-loss cause (connection reset, partition, dropped
	// in-flight message) stays retryable-typed too: the offset pin and
	// the server's retransmission memo make the caller's next attempt
	// exactly-once, so running out of attempts must not demote the error
	// to terminal.
	if retryableErr(lastErr) {
		return 0, newError(CodeUnavailable, "append", true, lastErr)
	}
	return 0, newError(CodeExhausted, "append", false, lastErr)
}

// recordPushBack floors the next attempt against dest at now+hint.
func (s *Stream) recordPushBack(dest string, hint time.Duration) {
	if hint <= 0 {
		return
	}
	if s.noRetryBefore == nil {
		s.noRetryBefore = make(map[string]time.Time)
	}
	until := time.Now().Add(hint)
	if until.After(s.noRetryBefore[dest]) {
		s.noRetryBefore[dest] = until
	}
}

// retryFloor returns the remaining push-back wait for the destination
// the next attempt will hit: the current streamlet's server, or the
// control plane ("") when a new streamlet must be fetched first.
func (s *Stream) retryFloor() time.Duration {
	dest := ""
	if s.sl != nil {
		dest = s.sl.Server
	}
	until, ok := s.noRetryBefore[dest]
	if !ok {
		return 0
	}
	d := time.Until(until)
	if d <= 0 {
		delete(s.noRetryBefore, dest)
		return 0
	}
	return d
}

// sendHedged dispatches one append attempt, racing a delayed second
// copy against a slow primary when hedging is enabled. Hedging applies
// only to offset-pinned unary appends: offset validation plus the
// server's retransmission memo make the duplicate harmless, and a bi-di
// stream is already ordered.
func (s *Stream) sendHedged(ctx context.Context, req *wire.AppendRequest, pinned bool) (*wire.AppendResponse, error) {
	d := s.c.opts.Retry.HedgeDelay
	if d <= 0 || !pinned || s.useBidi() {
		return s.send(ctx, req)
	}
	type result struct {
		resp  *wire.AppendResponse
		err   error
		hedge bool
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	addr := s.sl.Server
	ch := make(chan result, 2)
	call := func(r *wire.AppendRequest, hedge bool) {
		resp, err := wire.Append.Call(hctx, s.c.net, addr, r)
		ch <- result{resp, err, hedge}
	}
	go call(req, false)
	timer := time.NewTimer(d)
	defer timer.Stop()
	outstanding := 1
	hedged := false
	var firstErr error
	for outstanding > 0 {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				h := *req
				h.Retry = true
				s.c.hedges.Add(1)
				outstanding++
				go call(&h, true)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		case r := <-ch:
			outstanding--
			if r.err == nil {
				if r.hedge {
					s.c.hedgeWins.Add(1)
				}
				return r.resp, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		}
	}
	return nil, firstErr
}

// AppendTracked is Append plus the storage sequence (the TrueTime
// timestamp) assigned to the batch's first row; the verification
// pipelines (§6.3) record it to locate acked rows later.
func (s *Stream) AppendTracked(ctx context.Context, rows []schema.Row, opts ...AppendOption) (offset, firstSeq int64, err error) {
	off, err := s.Append(ctx, rows, opts...)
	if err != nil {
		return off, 0, err
	}
	return off, s.lastBatchSeq, nil
}

// validateRows checks rows against the stream's schema, refreshing the
// schema once if validation fails — the table may have evolved since the
// stream handle cached it (§5.4.1).
func (s *Stream) validateRows(ctx context.Context, rows []schema.Row) error {
	err := validate(s.schema, rows)
	if err == nil {
		return nil
	}
	sc, serr := s.c.GetSchema(ctx, s.info.Table)
	if serr != nil || sc.Version <= s.schema.Version {
		return err
	}
	s.schema = sc
	return validate(sc, rows)
}

// validate checks rows against sc, returning the first row's failure.
func validate(sc *schema.Schema, rows []schema.Row) error {
	for _, r := range rows {
		if err := sc.ValidateRow(r); err != nil {
			return err
		}
	}
	return nil
}

// rotate abandons the current streamlet: the SMS reconciles its true
// length and the next ensureStreamlet places a fresh one elsewhere.
func (s *Stream) rotate(ctx context.Context) {
	if s.sl == nil {
		return
	}
	s.c.rotations.Add(1)
	failed := s.sl
	s.closeConn()
	s.sl = nil
	s.connServer = failed.Server
	// Reconciliation must land before the next streamlet is placed: the
	// successor's start offset is derived from this streamlet's durable
	// row count (§7.1). Retry it across control-plane loss; if it still
	// fails, the next GetWritableStreamlet surfaces the inconsistency.
	_, _ = smsRetry(ctx, s.c, s.info.Table, wire.Reconcile, &wire.ReconcileRequest{
		Table:     failed.Table,
		Stream:    failed.Stream,
		Streamlet: failed.ID,
	})
}

// send dispatches one append over the adaptively chosen connection type.
func (s *Stream) send(ctx context.Context, req *wire.AppendRequest) (*wire.AppendResponse, error) {
	if s.useBidi() {
		return s.sendBidi(ctx, req)
	}
	return wire.Append.Call(ctx, s.c.net, s.sl.Server, req)
}

func (s *Stream) useBidi() bool {
	if s.c.opts.ForceUnary {
		return false
	}
	if s.c.opts.ForceBidi {
		return true
	}
	return s.appendsSeen >= unaryAppendThreshold
}

func (s *Stream) sendBidi(ctx context.Context, req *wire.AppendRequest) (*wire.AppendResponse, error) {
	if err := s.ensureConn(ctx); err != nil {
		return nil, err
	}
	if err := s.conn.Send(req); err != nil {
		return nil, err
	}
	return wire.Append.Response(s.conn)
}

func (s *Stream) ensureConn(ctx context.Context) error {
	if s.conn != nil && s.connServer == s.sl.Server {
		return nil
	}
	s.closeConn()
	conn, err := s.c.net.OpenStream(ctx, s.sl.Server, wire.Append.Name(), flowControlWindow)
	if err != nil {
		return err
	}
	s.conn = conn
	s.connServer = s.sl.Server
	return nil
}

// PendingAppend is an in-flight pipelined append (§4.2.2).
type PendingAppend struct {
	done chan struct{}
	resp *wire.AppendResponse
	err  error
}

// Wait blocks for the append's result, returning the stream offset the
// rows landed at.
func (p *PendingAppend) Wait() (int64, error) {
	<-p.done
	if p.err != nil {
		return 0, p.err
	}
	if p.resp.Error != "" {
		return 0, errors.New(p.resp.Error)
	}
	return p.resp.StreamOffset, nil
}

// AppendAsync pipelines an append over the bi-di connection without
// waiting for prior appends to complete. Results must be awaited in
// order. Pipelined appends do not retry: a failure surfaces on Wait and
// the caller resubmits through Append.
func (s *Stream) AppendAsync(ctx context.Context, rows []schema.Row, opts ...AppendOption) (*PendingAppend, error) {
	if s.finalized {
		return nil, newError(CodeStreamFinalized, "append", false, nil)
	}
	cfg := resolveAppendOpts(opts)
	if err := s.validateRows(ctx, rows); err != nil {
		return nil, err
	}
	if s.sl == nil {
		if err := s.ensureStreamlet(ctx, ""); err != nil {
			return nil, err
		}
	}
	if err := s.ensureConn(ctx); err != nil {
		return nil, err
	}
	payload := wire.AppendBlock(nil, rows)
	req := &wire.AppendRequest{
		Streamlet:            s.sl.ID,
		Payload:              payload,
		CRC:                  blockenc.Checksum(payload),
		ExpectedStreamOffset: cfg.offset,
		SchemaVersion:        s.schema.Version,
	}
	p := &PendingAppend{done: make(chan struct{})}
	s.pendingMu.Lock()
	first := len(s.pending) == 0
	s.pending = append(s.pending, p)
	s.pendingMu.Unlock()
	if err := s.conn.Send(req); err != nil {
		s.dropPending(p, err)
		return nil, err
	}
	if first {
		go s.collectResponses(s.conn)
	}
	s.appendsSeen++
	return p, nil
}

// collectResponses drains bi-di responses in order onto the pending queue.
func (s *Stream) collectResponses(conn rpc.ClientStream) {
	for {
		resp, err := wire.Append.Response(conn)
		s.pendingMu.Lock()
		if len(s.pending) == 0 {
			s.pendingMu.Unlock()
			return
		}
		p := s.pending[0]
		s.pending = s.pending[1:]
		empty := len(s.pending) == 0
		s.pendingMu.Unlock()
		if err != nil {
			p.err = err
			close(p.done)
			s.failPending(err)
			return
		}
		p.resp = resp
		close(p.done)
		if empty {
			return
		}
	}
}

func (s *Stream) dropPending(p *PendingAppend, err error) {
	s.pendingMu.Lock()
	for i, q := range s.pending {
		if q == p {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			break
		}
	}
	s.pendingMu.Unlock()
	p.err = err
	close(p.done)
}

func (s *Stream) failPending(err error) {
	s.pendingMu.Lock()
	pending := s.pending
	s.pending = nil
	s.pendingMu.Unlock()
	for _, p := range pending {
		p.err = err
		close(p.done)
	}
}

// Flush makes all rows up to (excluding) offset visible on a BUFFERED
// stream (§4.2.3). Idempotent; flushing behind the frontier is a no-op.
func (s *Stream) Flush(ctx context.Context, offset int64) error {
	// Durable flush record in the WOS log (§5.4.4), best effort when the
	// streamlet is unreachable — the SMS frontier is authoritative.
	if s.sl != nil {
		_, _ = wire.Flush.Call(ctx, s.c.net, s.sl.Server, &wire.FlushRequest{
			Streamlet:    s.sl.ID,
			StreamOffset: offset,
		})
	}
	_, err := smsRetry(ctx, s.c, s.info.Table, wire.FlushStream, &wire.FlushStreamRequest{
		Stream: s.info.ID,
		Offset: offset,
	})
	return err
}

// Finalize prevents further appends (§4.2.5) and returns the stream's
// final row count.
// Finalization is idempotent at the SMS, so retrying it is safe.
func (s *Stream) Finalize(ctx context.Context) (int64, error) {
	s.closeConn()
	resp, err := smsRetry(ctx, s.c, s.info.Table, wire.FinalizeStream, &wire.FinalizeStreamRequest{Stream: s.info.ID})
	if err != nil {
		return 0, err
	}
	s.finalized = true
	s.sl = nil
	return resp.RowCount, nil
}

// BatchCommit atomically commits PENDING streams (§4.2.4). All streams
// must belong to the same table.
func (c *Client) BatchCommit(ctx context.Context, table meta.TableID, streams []meta.StreamID) (truetime.Timestamp, error) {
	resp, err := CallSMS(ctx, c.net, c.router, table, wire.BatchCommit, &wire.BatchCommitRequest{Streams: streams})
	if err != nil {
		return 0, err
	}
	return resp.CommitTS, nil
}
