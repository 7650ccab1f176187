// Package vortex is a from-scratch, single-process reproduction of
// Vortex, the stream-oriented storage engine inside Google BigQuery
// (Edara, Forbes & Li, SIGMOD 2024). It provides:
//
//   - a streaming-first ingestion API with UNBUFFERED, BUFFERED and
//     PENDING streams, offset-validated exactly-once appends, flushes,
//     finalization and atomic batch commits;
//   - a simulated BigQuery region: multi-cluster Colossus, a Spanner
//     metadata database, Slicer-sharded SMS control-plane tasks and a
//     Stream Server data plane with dual-cluster synchronous replication;
//   - continuous storage optimization (WOS→ROS conversion into a
//     columnar format with Dremel repetition/definition levels) and
//     automatic reclustering;
//   - a SQL query engine with snapshot reads over the union of WOS and
//     ROS, Big Metadata partition elimination, and UPDATE/DELETE via
//     deletion masks;
//   - an exactly-once Dataflow-style sink and continuous data
//     verification.
//
// Quickstart:
//
//	db := vortex.Open(vortex.WithClusters("alpha", "beta"))
//	db.CreateTable(ctx, "d.events", eventSchema)
//	s, _ := db.Table("d.events").NewStream(ctx, vortex.Unbuffered)
//	s.Append(ctx, rows)                       // at-least-once, append at end
//	w := db.Table("d.events").NewWriter()     // exactly-once, offset-pinned:
//	w.Open(ctx, vortex.Unbuffered)            // each batch at the writer's next
//	w.Write(ctx, rows)                        // offset, a lost ack settled as Landed
//	res, _ := db.Query(ctx, "SELECT user, n FROM d.events WHERE n > 3")
//	for _, rb := range res.Batches() {        // batch-native consumption
//	    _ = rb.NumRows                        // wire.RecordBatch columns
//	}
//	for _, row := range res.Rows() {          // or the row adapter
//	    _ = row
//	}
package vortex

import (
	"context"
	"fmt"
	"sync"
	"time"

	"vortex/internal/chaos"
	"vortex/internal/client"
	"vortex/internal/core"
	"vortex/internal/latencymodel"
	"vortex/internal/matview"
	"vortex/internal/meta"
	"vortex/internal/metrics"
	"vortex/internal/optimizer"
	"vortex/internal/query"
	"vortex/internal/readsession"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/truetime"
	"vortex/internal/verify"
	"vortex/internal/wire"
)

// Re-exported core types: the public API surface is these plus the
// methods on DB, Table and Stream.
type (
	// Schema describes a table (fields, primary key, partitioning,
	// clustering).
	Schema = schema.Schema
	// Field is one (possibly nested) column.
	Field = schema.Field
	// Row is one table row.
	Row = schema.Row
	// Value is one datum.
	Value = schema.Value
	// Stream is a writable stream handle.
	Stream = client.Stream
	// AppendOption modifies one append call (see AtOffset, WithDeadline).
	AppendOption = client.AppendOption
	// Error is the unified client error: a stable code, the failed
	// operation, retryability, and the cause. errors.Is also matches
	// the ErrWrongOffset-style sentinels.
	Error = client.Error
	// ErrorCode classifies an Error.
	ErrorCode = client.ErrorCode
	// RetryPolicy governs append and control-plane retries.
	RetryPolicy = client.RetryPolicy
	// ClientMetrics snapshots the client-wide counters (see
	// DB.ClientMetrics).
	ClientMetrics = client.Metrics
	// CacheStats snapshots the read cache's counters (see WithReadCache).
	CacheStats = client.CacheStats
	// ChaosSchedule is a deterministic fault-injection plan (see
	// WithChaos and the internal/chaos package).
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one triggered injection.
	ChaosEvent = chaos.Event
	// Result is a query result set: columnar record batches natively
	// (Result.Batches), with lazy row adapters (Result.Rows,
	// Result.Next).
	Result = query.Result
	// ExecStats is per-query execution accounting, including the
	// vectorized leaf counters: RowsCodeSkipped rows were eliminated in
	// encoded space (per dictionary code / per RLE run) and RowsDecoded
	// rows actually materialized.
	ExecStats = query.ExecStats
	// RecordBatch is one decoded columnar batch — the shared currency
	// of query results and read-session shards.
	RecordBatch = wire.RecordBatch
	// BatchColumn is one named column of a RecordBatch.
	BatchColumn = wire.BatchColumn
	// TableID names a table ("dataset.table").
	TableID = meta.TableID
	// StreamType selects visibility semantics.
	StreamType = meta.StreamType
	// Timestamp is a TrueTime instant (snapshot reads).
	Timestamp = truetime.Timestamp
	// Writer is the exactly-once appender: it appends each batch at a
	// pinned offset and settles every attempt by one outcome table (see
	// Table.NewWriter).
	Writer = client.Writer
	// WriterOutcome is how one Writer attempt settled.
	WriterOutcome = client.Outcome
	// WriterBatch is one batch at its pinned offset.
	WriterBatch = client.Batch
	// Ledger records acknowledged appends for verification; feed it
	// from a Writer with w.Applied = ledger.Applied(w).
	Ledger = verify.Ledger
	// ReadSession is an open parallel read session: a table snapshot
	// fanned out into independently consumable shard streams (see
	// DB.OpenReadSession).
	ReadSession = readsession.Session
	// ReadShard is one resumable shard stream of a ReadSession.
	ReadShard = readsession.Shard
	// ReadBatch is one decoded record batch from a shard.
	ReadBatch = readsession.Batch
	// ReadSessionOptions configures OpenReadSession (shard count,
	// snapshot, predicate and projection pushdown).
	ReadSessionOptions = readsession.Options
	// ReadSessionStats are per-session consumption deltas.
	ReadSessionStats = readsession.Stats
	// IngestQuotas configures admission control for the write path:
	// token-bucket streamlet-creation and bytes/sec budgets, per table
	// and global (see WithIngestQuotas, DB.SetIngestQuotas).
	IngestQuotas = sms.Quotas
	// IngestStats snapshots the region's overload-protection counters
	// (admission decisions, shed appends, heartbeat coalescing, Slicer
	// rebalancing) — see DB.IngestStats.
	IngestStats = core.IngestStats
	// ViewDefinition is a compiled CREATE MATERIALIZED VIEW statement:
	// the resolved defining query, base tables, and inferred view schema.
	ViewDefinition = matview.Definition
	// RefreshStats summarizes one incremental view-maintenance cycle
	// (pinned snapshot, change events consumed, view rows written).
	RefreshStats = matview.RefreshStats
	// ViewStore is the maintainer's durable checkpoint store; the
	// embedded default is an in-memory store scoped to the DB.
	ViewStore = matview.Store
)

// Chaos cut-points and crash kinds, re-exported so schedules built with
// NewChaosSchedule can target them (FailAt, DelayAt, OnCrash, …).
const (
	ChaosPointRPCRequest    = chaos.PointRPCRequest
	ChaosPointRPCResponse   = chaos.PointRPCResponse
	ChaosPointStreamSend    = chaos.PointStreamSend
	ChaosPointColossusWrite = chaos.PointColossusWrite
	ChaosPointColossusRead  = chaos.PointColossusRead
	ChaosPointAppend        = chaos.PointAppend
	ChaosKindStreamServer   = chaos.KindStreamServer
	ChaosKindSMS            = chaos.KindSMS
)

// Writer outcomes.
const (
	// Acked: the batch was acknowledged.
	Acked = client.Acked
	// Landed: WRONG_OFFSET after an earlier attempt landed and its ack
	// was lost; the batch is durable.
	Landed = client.Landed
	// Reopen: STREAM_FINALIZED on a fresh batch, which is dropped; open
	// a new stream.
	Reopen = client.Reopen
	// InDoubt: the batch may or may not be durable; Resolve retries it
	// at its offset.
	InDoubt = client.InDoubt
)

// Stream types (§4.2.1).
const (
	Unbuffered = meta.Unbuffered
	Buffered   = meta.Buffered
	Pending    = meta.Pending
)

// Error codes.
const (
	CodeWrongOffset       = client.CodeWrongOffset
	CodeStreamFinalized   = client.CodeStreamFinalized
	CodeExhausted         = client.CodeExhausted
	CodeUnavailable       = client.CodeUnavailable
	CodeInvalid           = client.CodeInvalid
	CodeResourceExhausted = client.CodeResourceExhausted
)

// Sentinel errors (errors.Is targets; structured *Error values match).
var (
	ErrWrongOffset     = client.ErrWrongOffset
	ErrStreamFinalized = client.ErrStreamFinalized
	ErrExhausted       = client.ErrExhausted
	ErrUnavailable     = client.ErrUnavailable
	// ErrResourceExhausted matches admission-control push-back: the
	// request was shed before any durable effect and is always safe to
	// retry after the error's RetryAfter hint.
	ErrResourceExhausted = client.ErrResourceExhausted
)

// Append options and resilience constructors re-exported from the
// client library.
var (
	// AtOffset pins the rows to land at stream offset n (§4.2.2).
	AtOffset = client.AtOffset
	// WithDeadline bounds one append call, retries included.
	WithDeadline = client.WithDeadline
	// DefaultRetryPolicy returns the production-like retry policy.
	DefaultRetryPolicy = client.DefaultRetryPolicy
	// RetryAfter extracts the server-suggested minimum wait from a
	// RESOURCE_EXHAUSTED push-back anywhere in err's chain (zero if
	// none). Callers driving their own retry loops should never retry
	// a shed request sooner than this.
	RetryAfter = client.RetryAfter
	// NewChaosSchedule returns an empty deterministic fault schedule.
	NewChaosSchedule = chaos.NewSchedule
)

// Field modes.
const (
	Required = schema.Required
	Nullable = schema.Nullable
	Repeated = schema.Repeated
)

// Scalar kinds.
const (
	Int64Kind     = schema.KindInt64
	Float64Kind   = schema.KindFloat64
	BoolKind      = schema.KindBool
	StringKind    = schema.KindString
	BytesKind     = schema.KindBytes
	TimestampKind = schema.KindTimestamp
	DateKind      = schema.KindDate
	NumericKind   = schema.KindNumeric
	JSONKind      = schema.KindJSON
	StructKind    = schema.KindStruct
)

// OpenOption configures Open. Options compose left to right:
//
//	vortex.Open(vortex.WithClusters("alpha", "beta", "gamma"),
//	            vortex.WithProductionLatencies(),
//	            vortex.WithSeed(42))
type OpenOption interface {
	applyOpen(*openConfig)
}

type openConfig struct {
	clusters            []string
	productionLatencies bool
	seed                int64
	chaos               *chaos.Schedule
	retry               *client.RetryPolicy
	readCacheBytes      int64
	diskCacheDir        string
	diskCacheBytes      int64
	quotas              *sms.Quotas
	hbCoalesce          time.Duration
	hbMaxStreamlets     int
}

type openOptionFunc func(*openConfig)

func (f openOptionFunc) applyOpen(c *openConfig) { f(c) }

// WithClusters names the simulated Colossus/Borg clusters (≥2).
func WithClusters(names ...string) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.clusters = names })
}

// WithProductionLatencies injects the paper-calibrated latency model
// (p50 ≈ 10 ms appends); off by default for tests and examples.
func WithProductionLatencies() OpenOption {
	return openOptionFunc(func(c *openConfig) { c.productionLatencies = true })
}

// WithSeed makes latency sampling and retry jitter deterministic.
func WithSeed(n int64) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.seed = n })
}

// WithChaos wires a deterministic fault-injection schedule through the
// region: RPC drops and latency spikes, Stream Server crashes, SMS task
// loss, and Colossus cluster outage windows (§5.6, §7.3).
func WithChaos(s *ChaosSchedule) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.chaos = s })
}

// WithRetryPolicy overrides the client's append/control-plane retry
// policy (backoff, jitter, hedging, retry budget).
func WithRetryPolicy(p RetryPolicy) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.retry = &p })
}

// WithReadCache bounds the client's snapshot-safe fragment read cache
// to the given raw byte budget. Sealed fragments (immutable ROS files
// and finalized WOS logs) are cached decoded and keyed by path; live
// streamlet-tail files always bypass the cache, and SMS grooming/GC
// invalidates entries whose files are physically deleted. 0 (the
// default) disables caching.
func WithReadCache(bytes int64) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.readCacheBytes = bytes })
}

// WithDiskCache adds an on-disk middle tier under the RAM read cache:
// raw fragment file bytes spill to dir (bounded to the given byte
// budget, LRU, CRC32C-verified on every read) and a RAM miss falls
// through to disk before paying a Colossus fetch. Query scans also
// prefetch upcoming fragments into the tier asynchronously, so tables
// much larger than WithReadCache stream at local-disk speed instead of
// thrashing the LRU. GC invalidation unlinks deleted fragments from
// disk before the invalidation returns — a stale fragment is never
// served. The tier starts cold on every Open (stale files in dir are
// swept), and works with or without a RAM cache.
func WithDiskCache(dir string, bytes int64) OpenOption {
	return openOptionFunc(func(c *openConfig) {
		c.diskCacheDir = dir
		c.diskCacheBytes = bytes
	})
}

// WithIngestQuotas installs admission control on the write path: every
// SMS task enforces the token-bucket streamlet-creation and bytes/sec
// budgets, shedding over-quota work with a retryable RESOURCE_EXHAUSTED
// push-back that carries a server-suggested backoff. The zero value
// disables admission (the default). Quotas can be changed at runtime
// with DB.SetIngestQuotas.
func WithIngestQuotas(q IngestQuotas) OpenOption {
	return openOptionFunc(func(c *openConfig) { c.quotas = &q })
}

// WithHeartbeatCoalescing batches Stream Server heartbeats: delta
// rounds within window of the previous round are skipped whole (their
// dirty state carries over), and one round reports at most
// maxStreamlets streamlet deltas (0 = unlimited). Keeps control-plane
// traffic O(servers) under thousands of concurrent streams.
func WithHeartbeatCoalescing(window time.Duration, maxStreamlets int) OpenOption {
	return openOptionFunc(func(c *openConfig) {
		c.hbCoalesce = window
		c.hbMaxStreamlets = maxStreamlets
	})
}

// DB is an embedded Vortex region plus a client, query engine and
// storage optimizer.
type DB struct {
	Region *core.Region
	c      *client.Client
	engine *query.Engine
	opt    *optimizer.Optimizer
	ledger *verify.Ledger

	errs     chan error
	bgErrors metrics.Counter

	viewsMu sync.Mutex
	views   map[TableID]*MaterializedView
}

// Open starts an embedded region.
func Open(opts ...OpenOption) *DB {
	var oc openConfig
	for _, o := range opts {
		if o != nil {
			o.applyOpen(&oc)
		}
	}
	rc := core.DefaultConfig()
	if len(oc.clusters) >= 2 {
		rc.Clusters = oc.clusters
	}
	rc.Seed = oc.seed
	if oc.productionLatencies {
		rc.Latency = latencymodel.ProductionLike()
	}
	rc.Chaos = oc.chaos
	if oc.quotas != nil {
		rc.Quotas = *oc.quotas
	}
	rc.HeartbeatCoalesce = oc.hbCoalesce
	rc.HeartbeatMaxStreamlets = oc.hbMaxStreamlets
	region := core.NewRegion(rc)
	copts := client.DefaultOptions()
	copts.Seed = oc.seed
	if oc.retry != nil {
		copts.Retry = *oc.retry
	}
	copts.ReadCacheBytes = oc.readCacheBytes
	copts.DiskCacheDir = oc.diskCacheDir
	copts.DiskCacheBytes = oc.diskCacheBytes
	c := region.NewClient(copts)
	return &DB{
		Region: region,
		c:      c,
		engine: query.New(c, region.BigMeta, region.Net, region.Router(), query.Config{}),
		opt:    optimizer.New(optimizer.DefaultConfig(), c, region.Net, region.Router(), region.Colossus, region.Clock),
		ledger: verify.NewLedger(),
		errs:   make(chan error, 16),
		views:  make(map[TableID]*MaterializedView),
	}
}

// OpenReadSession opens a parallel read session over table: a snapshot
// pinned against GC by a lease, split into up to opts.Shards resumable
// shard streams of columnar record batches. Each shard may be consumed
// by its own reader; Shard.Commit checkpoints progress and
// Session.Split rebalances a straggler's unserved tail onto a new
// shard.
func (db *DB) OpenReadSession(ctx context.Context, table TableID, opts ReadSessionOptions) (*ReadSession, error) {
	return readsession.Dial(db.c, "").Open(ctx, table, opts)
}

// Chaos returns the fault-injection schedule the DB was opened with
// (nil when none).
func (db *DB) Chaos() *ChaosSchedule { return db.Region.Chaos() }

// ClientMetrics snapshots the DB's client-wide counters: resilience
// (retries, rotations, hedges, push-backs, append and scan latency),
// the read cache, and read-session consumption (batches, bytes, splits,
// checkpoint resumes) accumulated across every session opened from
// this DB.
func (db *DB) ClientMetrics() ClientMetrics { return db.c.Metrics() }

// IngestStats snapshots the region's overload-protection counters:
// admission decisions, shed appends, heartbeat coalescing and Slicer
// rebalancing activity.
func (db *DB) IngestStats() IngestStats { return db.Region.IngestStats() }

// SetIngestQuotas replaces the admission-control quotas on every SMS
// task at runtime — raising them is how an operator recovers from an
// overload once the backlog drains. The zero value disables admission.
func (db *DB) SetIngestQuotas(q IngestQuotas) { db.Region.SetQuotas(q) }

// ReadCacheStats snapshots the read cache's counters: RAM-tier
// hit/miss/eviction/oversize-reject counts plus, when WithDiskCache is
// set, the disk tier's Disk*/Prefetch* counters. All zero when the DB
// was opened without WithReadCache or WithDiskCache.
func (db *DB) ReadCacheStats() CacheStats { return db.c.ReadCache().Stats() }

// Errors returns background-maintenance errors (RunBackground's
// optimizer and reclustering passes). The channel is bounded; when full
// the oldest error is dropped so the newest is always observable.
// Callers that never drain it lose nothing but the errors themselves.
func (db *DB) Errors() <-chan error { return db.errs }

// BackgroundErrorCount reports how many background errors occurred
// (including any dropped from the Errors channel).
func (db *DB) BackgroundErrorCount() int64 { return db.bgErrors.Value() }

func (db *DB) reportErr(err error) {
	if err == nil {
		return
	}
	db.bgErrors.Add(1)
	for {
		select {
		case db.errs <- err:
			return
		default:
			select {
			case <-db.errs: // drop the oldest
			default:
			}
		}
	}
}

// Client returns the underlying thick client library.
func (db *DB) Client() *client.Client { return db.c }

// CreateTable creates a table.
func (db *DB) CreateTable(ctx context.Context, name TableID, s *Schema) error {
	return db.c.CreateTable(ctx, name, s)
}

// Table returns a handle on a table.
func (db *DB) Table(name TableID) *Table { return &Table{db: db, name: name} }

// Query executes one SQL statement at the current snapshot.
func (db *DB) Query(ctx context.Context, sql string) (*Result, error) {
	return db.engine.Query(ctx, sql)
}

// QueryAt executes at a snapshot timestamp (time travel).
func (db *DB) QueryAt(ctx context.Context, sql string, at Timestamp) (*Result, error) {
	return db.engine.QueryAt(ctx, sql, at)
}

// Now returns a snapshot timestamp covering everything acknowledged so far.
func (db *DB) Now() Timestamp { return db.Region.Clock.Now().Latest }

// Optimize runs one WOS→ROS conversion pass on the table (§6.1).
func (db *DB) Optimize(ctx context.Context, name TableID) (optimizer.Result, error) {
	return db.opt.ConvertTable(ctx, name)
}

// Recluster runs one automatic-reclustering step (Figure 6).
func (db *DB) Recluster(ctx context.Context, name TableID, force bool) (int, error) {
	return db.opt.Recluster(ctx, name, force)
}

// ClusteringRatio reports the table's clustering state.
func (db *DB) ClusteringRatio(ctx context.Context, name TableID) (optimizer.ClusterState, error) {
	return db.opt.ClusteringRatio(ctx, name)
}

// Heartbeat drives one Stream-Server→SMS heartbeat round (§5.5). The
// production system does this on a timer; embedded users call it (or
// RunBackground) when they want metadata promoted.
func (db *DB) Heartbeat(ctx context.Context) { db.Region.HeartbeatAll(ctx, false) }

// RunBackground starts heartbeats and periodic storage optimization for
// every table in tables until ctx ends.
func (db *DB) RunBackground(ctx context.Context, every time.Duration, tables ...TableID) {
	db.Region.RunHeartbeats(ctx, every)
	go func() {
		ticker := time.NewTicker(every * 4)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				for _, t := range tables {
					if ctx.Err() != nil {
						return
					}
					if _, err := db.opt.ConvertTable(ctx, t); err != nil {
						db.reportErr(fmt.Errorf("optimize %s: %w", t, err))
					}
					if _, err := db.opt.Recluster(ctx, t, false); err != nil {
						db.reportErr(fmt.Errorf("recluster %s: %w", t, err))
					}
				}
			}
		}
	}()
}

// MaterializedView is a continuously maintainable view: an ordinary
// primary-keyed Vortex table whose contents are the defining GROUP BY
// (optionally JOIN) query, kept current by folding the base tables'
// `_CHANGE_TYPE` change streams into retractable aggregate state.
// Because the view is a real table, snapshot reads, read sessions,
// caching and GC apply to it unchanged — query it like any other.
type MaterializedView struct {
	db    *DB
	def   *matview.Definition
	store matview.Store
	m     *matview.Maintainer
}

// CreateMaterializedView compiles a CREATE MATERIALIZED VIEW statement,
// creates the view's backing table, and runs the initial build (the
// full base tables stream through the same incremental path). Call
// Refresh on the returned handle to fold in subsequent changes.
//
// The defining query must GROUP BY (the grouped columns become the
// view's primary key) and may join two primary-keyed tables on an
// equality predicate:
//
//	v, _ := db.CreateMaterializedView(ctx, `CREATE MATERIALIZED VIEW d.bypage AS
//	    SELECT page, COUNT(*) AS views FROM d.clicks GROUP BY page`)
//	...ingest upserts/deletes into d.clicks...
//	stats, _ := v.Refresh(ctx)  // fold the delta in, exactly-once
//	res, _ := db.Query(ctx, "SELECT page, views FROM d.bypage")
func (db *DB) CreateMaterializedView(ctx context.Context, stmt string) (*MaterializedView, error) {
	def, err := matview.Compile(stmt, func(t TableID) (*Schema, error) {
		return db.c.GetSchema(ctx, t)
	})
	if err != nil {
		return nil, err
	}
	if err := db.c.CreateTable(ctx, def.View, def.ViewSchema); err != nil {
		return nil, err
	}
	store := matview.NewMemStore()
	m, err := matview.NewMaintainer(db.c, def, store, 0)
	if err != nil {
		return nil, err
	}
	v := &MaterializedView{db: db, def: def, store: store, m: m}
	if _, err := v.Refresh(ctx); err != nil {
		return nil, err
	}
	db.viewsMu.Lock()
	db.views[def.View] = v
	db.viewsMu.Unlock()
	return v, nil
}

// MaterializedView returns the handle for a view created on this DB,
// or nil when no such view exists.
func (db *DB) MaterializedView(name TableID) *MaterializedView {
	db.viewsMu.Lock()
	defer db.viewsMu.Unlock()
	return db.views[name]
}

// MaterializedViews lists the views created on this DB.
func (db *DB) MaterializedViews() []*MaterializedView {
	db.viewsMu.Lock()
	defer db.viewsMu.Unlock()
	out := make([]*MaterializedView, 0, len(db.views))
	for _, v := range db.views {
		out = append(out, v)
	}
	return out
}

// Name returns the view's table id.
func (v *MaterializedView) Name() TableID { return v.def.View }

// Definition returns the view's compiled definition; Definition.SelectSQL
// is the defining query, recomputable with DB.QueryAt as a parity oracle.
func (v *MaterializedView) Definition() *ViewDefinition { return v.def }

// AppliedTS returns the snapshot the view currently reflects: the view's
// contents equal the defining query recomputed at exactly this timestamp.
func (v *MaterializedView) AppliedTS() Timestamp { return v.m.AppliedTS() }

// Refresh runs one exactly-once maintenance cycle: it reads each base
// table's change stream above the last applied storage sequence at a
// pinned snapshot, folds the deltas into the view's retractable state,
// writes the changed view rows through the exactly-once sink, and
// commits the checkpoint. A failed Refresh leaves durable state intact;
// the handle rebuilds its in-memory state from the checkpoint before
// the next attempt, so retrying is always safe.
func (v *MaterializedView) Refresh(ctx context.Context) (*RefreshStats, error) {
	stats, err := v.m.Refresh(ctx)
	if err != nil {
		// The in-memory state may hold a partially applied delta; recover
		// the maintainer-crash way, from the last committed checkpoint.
		if m2, rerr := matview.NewMaintainer(v.db.c, v.def, v.store, 0); rerr == nil {
			v.m = m2
		}
		return nil, err
	}
	return stats, nil
}

// BatchCommit atomically commits PENDING streams (§4.2.4).
func (db *DB) BatchCommit(ctx context.Context, table TableID, streams []meta.StreamID) (Timestamp, error) {
	return db.c.BatchCommit(ctx, table, streams)
}

// Verify runs one §6.3 verification pass against the DB's ledger.
func (db *DB) Verify(ctx context.Context, table TableID) (*verify.Report, error) {
	return verify.VerifyTable(ctx, db.c, table, db.ledger, 0)
}

// AppendLedger returns the DB's append ledger. Feed it from a writer
// with w.Applied = db.AppendLedger().Applied(w).
func (db *DB) AppendLedger() *Ledger { return db.ledger }

// Table is a handle on one table.
type Table struct {
	db   *DB
	name TableID
}

// Name returns the table id.
func (t *Table) Name() TableID { return t.name }

// NewStream creates a stream on the table (§4.2.1).
func (t *Table) NewStream(ctx context.Context, typ StreamType) (*Stream, error) {
	return t.db.c.CreateStream(ctx, t.name, typ)
}

// NewWriter returns an exactly-once writer on the table (§4.2.2): Open
// gives it a stream, then Append, Resolve and Write pin every batch at
// the writer's next offset.
func (t *Table) NewWriter() *Writer { return client.NewWriter(t.db.c, t.name) }

// Schema fetches the table's current schema.
func (t *Table) Schema(ctx context.Context) (*Schema, error) {
	return t.db.c.GetSchema(ctx, t.name)
}

// AddField evolves the schema by adding a NULLABLE or REPEATED field
// (§5.4.1).
func (t *Table) AddField(ctx context.Context, f *Field) (*Schema, error) {
	return t.db.c.UpdateSchema(ctx, t.name, f)
}

// Value constructors re-exported for application code.
var (
	// NullValue returns a NULL value.
	NullValue = schema.Null
	// Int64Value builds an INTEGER value.
	Int64Value = schema.Int64
	// Float64Value builds a FLOAT64 value.
	Float64Value = schema.Float64
	// BoolValue builds a BOOL value.
	BoolValue = schema.Bool
	// StringValue builds a STRING value.
	StringValue = schema.String
	// BytesValue builds a BYTES value.
	BytesValue = schema.Bytes
	// TimestampValue builds a TIMESTAMP value.
	TimestampValue = schema.Timestamp
	// DateValue builds a DATE value.
	DateValue = schema.Date
	// NumericValue builds a NUMERIC value from 1e-9 units.
	NumericValue = schema.Numeric
	// NumericString parses a decimal literal into NUMERIC.
	NumericString = schema.NumericFromString
	// JSONValue parses and canonicalizes a JSON document.
	JSONValue = schema.JSON
	// StructValue builds a STRUCT value.
	StructValue = schema.Struct
	// ListValue builds a REPEATED value.
	ListValue = schema.List
	// NewRow builds an INSERT row.
	NewRow = schema.NewRow
)

// Change types for CDC ingestion (§4.2.6).
const (
	Insert = schema.ChangeInsert
	Upsert = schema.ChangeUpsert
	Delete = schema.ChangeDelete
)
