// Package wire defines the RPC message types exchanged between the
// Vortex client library, the Stream Metadata Server (control plane) and
// the Stream Servers (data plane). Messages cross the in-process rpc
// transport by reference; by convention every message and the schemas it
// carries are immutable once sent.
//
// It also owns the byte formats those messages carry and the files keep:
// the column codec (column.go), the record-batch frame read sessions
// stream (recordbatch.go), and the WOS block (block.go) — an append's
// payload and a WOS fragment's DATA block, whose one encoder the client
// calls and whose one decoder the Stream Server and the reader share.
package wire

import (
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

// Stream Server method names.
const (
	MethodCreateStreamlet   = "CreateStreamlet"
	MethodAppend            = "Append" // unary and bi-di stream variants
	MethodFlush             = "Flush"
	MethodFinalizeStreamlet = "FinalizeStreamlet"
	MethodStreamletState    = "StreamletState"
)

// SMS method names.
const (
	MethodCreateTable          = "CreateTable"
	MethodGetTable             = "GetTable"
	MethodUpdateSchema         = "UpdateSchema"
	MethodCreateStream         = "CreateStream"
	MethodGetStream            = "GetStream"
	MethodGetWritableStreamlet = "GetWritableStreamlet"
	MethodFlushStream          = "FlushStream"
	MethodFinalizeStream       = "FinalizeStream"
	MethodBatchCommit          = "BatchCommit"
	MethodHeartbeat            = "Heartbeat"
	MethodReadView             = "ReadView"
	MethodReconcile            = "Reconcile"
	MethodDegradeStreamlet     = "DegradeStreamlet"
	MethodRegisterConversion   = "RegisterConversion"
	MethodConversionCandidates = "ConversionCandidates"
	MethodCommitDML            = "CommitDML"
	MethodBeginDML             = "BeginDML"
	MethodEndDML               = "EndDML"
	MethodGC                   = "GC"
	MethodAcquireLease         = "AcquireLease"
	MethodRenewLease           = "RenewLease"
	MethodReleaseLease         = "ReleaseLease"
)

// Read-session service method names (served by the read-session task,
// not the SMS; the SMS only holds the snapshot leases).
const (
	MethodOpenReadSession  = "OpenReadSession"
	MethodCloseReadSession = "CloseReadSession"
	MethodSplitShard       = "SplitShard"
	MethodReadRows         = "ReadRows" // bi-di stream
)

// The methods, each bound to its request and response types. Handlers
// and callers go through these declarations (rpc.Method), and declaring
// a method registers its two message types with gob: they are the whole
// set of storage messages the TCP transport carries.
var (
	CreateStreamlet   = rpc.NewMethod[CreateStreamletRequest, CreateStreamletResponse](MethodCreateStreamlet)
	Append            = rpc.NewMethod[AppendRequest, AppendResponse](MethodAppend)
	Flush             = rpc.NewMethod[FlushRequest, FlushResponse](MethodFlush)
	FinalizeStreamlet = rpc.NewMethod[FinalizeStreamletRequest, FinalizeStreamletResponse](MethodFinalizeStreamlet)
	StreamletState    = rpc.NewMethod[StreamletStateRequest, StreamletStateResponse](MethodStreamletState)

	CreateTable          = rpc.NewMethod[CreateTableRequest, CreateTableResponse](MethodCreateTable)
	GetTable             = rpc.NewMethod[GetTableRequest, GetTableResponse](MethodGetTable)
	UpdateSchema         = rpc.NewMethod[UpdateSchemaRequest, UpdateSchemaResponse](MethodUpdateSchema)
	CreateStream         = rpc.NewMethod[CreateStreamRequest, CreateStreamResponse](MethodCreateStream)
	GetStream            = rpc.NewMethod[GetStreamRequest, GetStreamResponse](MethodGetStream)
	GetWritableStreamlet = rpc.NewMethod[GetWritableStreamletRequest, GetWritableStreamletResponse](MethodGetWritableStreamlet)
	FlushStream          = rpc.NewMethod[FlushStreamRequest, FlushStreamResponse](MethodFlushStream)
	FinalizeStream       = rpc.NewMethod[FinalizeStreamRequest, FinalizeStreamResponse](MethodFinalizeStream)
	BatchCommit          = rpc.NewMethod[BatchCommitRequest, BatchCommitResponse](MethodBatchCommit)
	Heartbeat            = rpc.NewMethod[HeartbeatRequest, HeartbeatResponse](MethodHeartbeat)
	ReadView             = rpc.NewMethod[ReadViewRequest, ReadViewResponse](MethodReadView)
	Reconcile            = rpc.NewMethod[ReconcileRequest, ReconcileResponse](MethodReconcile)
	DegradeStreamlet     = rpc.NewMethod[DegradeStreamletRequest, DegradeStreamletResponse](MethodDegradeStreamlet)
	RegisterConversion   = rpc.NewMethod[RegisterConversionRequest, RegisterConversionResponse](MethodRegisterConversion)
	ConversionCandidates = rpc.NewMethod[ConversionCandidatesRequest, ConversionCandidatesResponse](MethodConversionCandidates)
	CommitDML            = rpc.NewMethod[CommitDMLRequest, CommitDMLResponse](MethodCommitDML)
	BeginDML             = rpc.NewMethod[BeginDMLRequest, BeginDMLResponse](MethodBeginDML)
	EndDML               = rpc.NewMethod[EndDMLRequest, EndDMLResponse](MethodEndDML)
	GC                   = rpc.NewMethod[GCRequest, GCResponse](MethodGC)
	AcquireLease         = rpc.NewMethod[AcquireLeaseRequest, AcquireLeaseResponse](MethodAcquireLease)
	RenewLease           = rpc.NewMethod[RenewLeaseRequest, RenewLeaseResponse](MethodRenewLease)
	ReleaseLease         = rpc.NewMethod[ReleaseLeaseRequest, ReleaseLeaseResponse](MethodReleaseLease)

	OpenReadSession  = rpc.NewMethod[OpenReadSessionRequest, OpenReadSessionResponse](MethodOpenReadSession)
	CloseReadSession = rpc.NewMethod[CloseReadSessionRequest, CloseReadSessionResponse](MethodCloseReadSession)
	SplitShard       = rpc.NewMethod[SplitShardRequest, SplitShardResponse](MethodSplitShard)
	ReadRows         = rpc.NewMethod[ReadRowsRequest, ReadRowsResponse](MethodReadRows)
)

// ---- Stream Server messages ----

// CreateStreamletRequest asks a Stream Server to start hosting a
// streamlet (sent by the SMS, §5.3).
type CreateStreamletRequest struct {
	Info   meta.StreamletInfo
	Schema *schema.Schema
	// Epoch identifies this writer incarnation; reconciliation sentinels
	// carry a different epoch (§5.6).
	Epoch int64
}

// CreateStreamletResponse acknowledges streamlet creation.
type CreateStreamletResponse struct{}

// AppendRequest appends a batch of rows to a streamlet.
type AppendRequest struct {
	Streamlet meta.StreamletID
	// Payload is the batch as a WOS block (AppendBlock, block.go); CRC
	// is its end-to-end CRC32C computed by the client (§5.4.5).
	Payload []byte
	CRC     uint32
	// ExpectedStreamOffset, when >= 0, is the stream row offset the
	// client expects this batch to land at; a mismatch fails the request
	// (exactly-once retries, §4.2.2). -1 means "append at current end".
	ExpectedStreamOffset int64
	// SchemaVersion is the schema version the client serialized under;
	// a stale version fails the append so the client refetches (§5.4.1).
	SchemaVersion int
	// Retry marks a retransmission (or hedge) of a batch whose first
	// attempt may already have landed. With a pinned ExpectedStreamOffset
	// it lets the server replay the original ack instead of failing with
	// WRONG_OFFSET when the previous ack was lost in flight (§4.2.2).
	Retry bool
}

// WireSize implements rpc.Sized for flow-control accounting.
func (r *AppendRequest) WireSize() int { return len(r.Payload) + 64 }

// AppendResponse reports the outcome of one append. On a bi-directional
// stream, errors travel in Error so the stream survives for diagnosis.
type AppendResponse struct {
	// StreamOffset is the stream row offset at which the batch landed.
	StreamOffset int64
	RowCount     int64
	// Timestamp is the TrueTime timestamp assigned to the batch's first
	// row; row i of the batch has timestamp Timestamp+i (§5.4.4).
	Timestamp truetime.Timestamp
	// Error is the failure, if any: one of the Err* codes below,
	// optionally with detail after a ": ".
	Error string
	// RetryAfterNanos, set with ErrCodeResourceExhausted, is the
	// server-suggested backoff before the client retries: the push-back
	// half of admission control. Retrying sooner only feeds the storm.
	RetryAfterNanos int64
}

// Error codes carried in AppendResponse.Error and unary errors.
const (
	ErrCodeWrongOffset     = "WRONG_OFFSET"      // offset validation failed
	ErrCodeSchemaStale     = "SCHEMA_STALE"      // client must refetch schema
	ErrCodeStreamletClosed = "STREAMLET_CLOSED"  // finalized or relinquished; get a new one
	ErrCodeUnknown         = "UNKNOWN_STREAMLET" // server does not host it
	ErrCodeIO              = "IO_ERROR"          // both replicas failed irrecoverably
	ErrCodeBadPayload      = "BAD_PAYLOAD"       // CRC/decoding failure
	// ErrCodeResourceExhausted is the load-shedding push-back: the table
	// (or the region) is over its ingestion quota and the request was
	// rejected before any durable write. Always retryable; the response's
	// RetryAfterNanos carries the suggested wait.
	ErrCodeResourceExhausted = "RESOURCE_EXHAUSTED"
)

// FlushRequest writes a flush metadata record advancing a BUFFERED
// stream's committed offset in the log (§5.4.4).
type FlushRequest struct {
	Streamlet    meta.StreamletID
	StreamOffset int64
}

// FlushResponse acknowledges a flush record write.
type FlushResponse struct{}

// FinalizeStreamletRequest closes a streamlet for writes.
type FinalizeStreamletRequest struct {
	Streamlet meta.StreamletID
}

// FinalizeStreamletResponse reports the final state.
type FinalizeStreamletResponse struct {
	RowCount  int64
	Fragments []meta.FragmentInfo
}

// StreamletStateRequest asks the Stream Server for its in-memory truth
// about a streamlet — the read path's common-case optimization (§7.1).
type StreamletStateRequest struct {
	Streamlet meta.StreamletID
}

// StreamletStateResponse lists the streamlet's fragments "with the
// number of valid bytes to read from each" (§5.3).
type StreamletStateResponse struct {
	RowCount  int64
	Fragments []meta.FragmentInfo
}

// ---- SMS messages ----

// CreateTableRequest creates a table with its logical metadata.
type CreateTableRequest struct {
	Table  meta.TableID
	Schema *schema.Schema
}

// CreateTableResponse acknowledges table creation.
type CreateTableResponse struct{}

// GetTableRequest fetches a table's schema.
type GetTableRequest struct {
	Table meta.TableID
}

// GetTableResponse carries the current schema.
type GetTableResponse struct {
	Schema *schema.Schema
}

// UpdateSchemaRequest evolves the table schema by adding a field.
type UpdateSchemaRequest struct {
	Table meta.TableID
	Field *schema.Field
}

// UpdateSchemaResponse carries the evolved schema.
type UpdateSchemaResponse struct {
	Schema *schema.Schema
}

// CreateStreamRequest creates a stream on a table (§4.2.1).
type CreateStreamRequest struct {
	Table meta.TableID
	Type  meta.StreamType
}

// CreateStreamResponse returns the stream and the table schema (the
// schema "is a property of this object", §4.2.1).
type CreateStreamResponse struct {
	Stream meta.StreamInfo
	Schema *schema.Schema
}

// GetStreamRequest fetches stream state.
type GetStreamRequest struct {
	Stream meta.StreamID
}

// GetStreamResponse carries stream state.
type GetStreamResponse struct {
	Stream meta.StreamInfo
}

// GetWritableStreamletRequest asks for the stream's writable streamlet,
// creating one (placed on a healthy Stream Server) if needed (§5.2).
type GetWritableStreamletRequest struct {
	Stream meta.StreamID
	// ExcludeServer, when set, asks for placement away from a server the
	// client just failed against.
	ExcludeServer string
}

// GetWritableStreamletResponse identifies the writable streamlet.
type GetWritableStreamletResponse struct {
	Streamlet meta.StreamletInfo
	Schema    *schema.Schema
	Epoch     int64
}

// FlushStreamRequest advances a BUFFERED stream's visibility frontier
// (§4.2.3). Idempotent; offsets behind the frontier are no-ops.
type FlushStreamRequest struct {
	Stream meta.StreamID
	Offset int64
}

// FlushStreamResponse returns the (possibly unchanged) frontier.
type FlushStreamResponse struct {
	FlushedOffset int64
}

// FinalizeStreamRequest prevents further appends to a stream (§4.2.5).
type FinalizeStreamRequest struct {
	Stream meta.StreamID
}

// FinalizeStreamResponse reports the stream's final row count.
type FinalizeStreamResponse struct {
	RowCount int64
}

// BatchCommitRequest atomically commits PENDING streams (§4.2.4).
type BatchCommitRequest struct {
	Streams []meta.StreamID
}

// BatchCommitResponse carries the common commit timestamp.
type BatchCommitResponse struct {
	CommitTS truetime.Timestamp
}

// StreamletHeartbeat is one streamlet's delta in a heartbeat: metadata
// changes observed since the previous heartbeat (§5.5).
type StreamletHeartbeat struct {
	Info      meta.StreamletInfo
	Fragments []meta.FragmentInfo
}

// HeartbeatRequest carries streamlet deltas (§5.5). The paper's
// heartbeat also reports server load; this one reports none, because
// nothing here measures it and placement spreads by count (sms.Placer).
type HeartbeatRequest struct {
	Server     string
	Streamlets []StreamletHeartbeat
	// FullSnapshot marks the periodic full-state heartbeat used to
	// detect orphaned streamlets (§5.4.3).
	FullSnapshot bool
	// DeletedFragments acknowledges fragment files the server deleted in
	// response to a previous DeleteFragments instruction; the SMS then
	// removes their Spanner records (§5.4.3).
	DeletedFragments []meta.FragmentID
	// TableBytes carries the bytes appended per table since the last
	// acknowledged heartbeat. The SMS debits these against its byte-rate
	// quotas, so admission control sees aggregate table throughput at
	// O(servers) control-plane cost — no per-stream reporting.
	TableBytes map[meta.TableID]int64
}

// HeartbeatResponse instructs the Stream Server: current schemas for its
// tables (how schema changes reach writers, §5.4.1), fragments to
// garbage collect, streamlets the SMS does not know (candidates for
// deletion if sufficiently old), and streamlets reported writable whose
// record is FINALIZED (the server relinquishes them).
type HeartbeatResponse struct {
	Schemas             map[meta.TableID]*schema.Schema
	DeleteFragments     []meta.FragmentID
	UnknownStreamlets   []meta.StreamletID
	FinalizedStreamlets []meta.StreamletID
	// ShedTables instructs the server to reject appends to each listed
	// table with ErrCodeResourceExhausted for the given duration (nanos):
	// the SMS found the table (or the region) over its byte-rate quota.
	// Shedding rides the heartbeat, keeping enforcement O(servers).
	ShedTables map[meta.TableID]int64
}

// StreamVisibility tells a reader how to filter a stream's rows.
type StreamVisibility struct {
	Type          meta.StreamType
	FlushedOffset int64
	Committed     bool
	CommitTS      truetime.Timestamp
	Finalized     bool
}

// ReadFragment is one fragment of the read view with its deletion mask.
type ReadFragment struct {
	Info meta.FragmentInfo
	Mask *dml.Mask
	Vis  StreamVisibility
	// StreamStart is the stream row offset of the fragment's first row
	// (StreamletInfo.StartOffset + FragmentInfo.StartRow), used to apply
	// BUFFERED flush frontiers. Zero for ROS fragments.
	StreamStart int64
}

// ReadStreamlet points a reader at an unfinalized streamlet whose tail
// may hold rows the SMS has not yet heard about (§7). The reader lists
// the streamlet's log files itself and applies the commit rule; the SMS
// supplies what only it knows: which fragments were already converted
// (their files must be skipped) and the deletion masks.
type ReadStreamlet struct {
	Info     meta.StreamletInfo
	Vis      StreamVisibility
	TailMask *dml.Mask
	// FragmentMasks carries per-fragment deletion masks (fragment-local
	// row indexes) for the streamlet's SMS-known fragments.
	FragmentMasks map[meta.FragmentID]*dml.Mask
	// DeletedFragments lists fragments not visible at the snapshot
	// (converted to ROS); the reader skips their files.
	DeletedFragments []meta.FragmentID
	Epoch            int64
}

// ReadViewRequest asks for the partitioned metadata of a table as of a
// snapshot time (§7).
type ReadViewRequest struct {
	Table      meta.TableID
	SnapshotTS truetime.Timestamp // 0 = now
}

// ReadViewResponse is "the union of the data in WOS and ROS" (§7).
type ReadViewResponse struct {
	Table      meta.TableID
	SnapshotTS truetime.Timestamp
	Schema     *schema.Schema
	Fragments  []ReadFragment
	Streamlets []ReadStreamlet
}

// ReconcileRequest runs the §5.6 reconciliation protocol on a streamlet.
type ReconcileRequest struct {
	Table     meta.TableID
	Stream    meta.StreamID
	Streamlet meta.StreamletID
}

// ReconcileResponse reports the reconciled, now-authoritative state.
type ReconcileResponse struct {
	RowCount  int64
	Fragments []meta.FragmentInfo
}

// DegradeStreamletRequest asks the SMS to durably record that a
// streamlet fell back from dual- to single-cluster replication because
// one cluster is out (§5.6). The Stream Server sends it synchronously
// before acknowledging the first degraded write, so reconciliation and
// readers consult only the healthy replica from that point on.
type DegradeStreamletRequest struct {
	Table     meta.TableID
	Stream    meta.StreamID
	Streamlet meta.StreamletID
	// Clusters is the new (single-cluster, duplicated) replica set.
	Clusters [2]string
}

// DegradeStreamletResponse acknowledges the durable replica-set change.
// Finalized reports that the streamlet's record is FINALIZED: the caller
// no longer owns it and must not acknowledge the degraded write.
type DegradeStreamletResponse struct {
	Finalized bool
}

// ConversionCandidatesRequest asks the SMS for fragments ready to be
// converted WOS→ROS (§6.1).
type ConversionCandidatesRequest struct {
	Table meta.TableID
}

// ConversionCandidatesResponse lists candidate fragments with the
// visibility data the optimizer needs to decide convertibility.
type ConversionCandidatesResponse struct {
	Fragments []ReadFragment
}

// RegisterConversionRequest atomically swaps old fragments for new ones:
// the SMS sets DeletionTS on every old fragment and CreationTS on every
// new fragment at one commit timestamp, guaranteeing each row is read
// exactly once (§6.1).
type RegisterConversionRequest struct {
	Table meta.TableID
	Old   []meta.FragmentID
	New   []meta.FragmentInfo
	// NewMasks carries deletion masks for stable 1:1 conversions, where
	// the old fragment's mask transfers to the new fragment (§7.3).
	NewMasks map[meta.FragmentID]*dml.Mask
	// AppliedMasks records, per old fragment, the marshaled deletion mask
	// the optimizer applied while converting. If a DML statement changed
	// a mask in the meantime, the SMS rejects the registration and the
	// optimizer redoes the conversion — this, together with yielding to
	// active DML, resolves the §7.3 race.
	AppliedMasks map[meta.FragmentID][]byte
	// TransferMasks maps old→new fragment ids for stable 1:1 conversions
	// (§7.3): the SMS copies the old fragment's *current* mask to the new
	// fragment inside the registration transaction, so concurrent DML can
	// never be lost and no mask-equality check is needed.
	TransferMasks map[meta.FragmentID]meta.FragmentID
}

// RegisterConversionResponse acknowledges.
type RegisterConversionResponse struct{}

// BeginDMLRequest announces a running DML statement on a table; while
// any is active the storage optimizer will not commit (§7.3).
type BeginDMLRequest struct {
	Table meta.TableID
}

// BeginDMLResponse carries a token for EndDML.
type BeginDMLResponse struct {
	Token int64
}

// EndDMLRequest closes a DML window.
type EndDMLRequest struct {
	Table meta.TableID
	Token int64
}

// EndDMLResponse acknowledges.
type EndDMLResponse struct{}

// CommitDMLRequest atomically commits a DML statement: per-fragment
// deletion masks, streamlet-tail masks, and (optionally) a PENDING
// stream of reinserted/updated rows made visible at the same instant
// (§7.3).
type CommitDMLRequest struct {
	Table           meta.TableID
	FragmentMasks   map[meta.FragmentID]*dml.Mask
	TailMasks       map[meta.StreamletID]*dml.Mask
	ReinsertStreams []meta.StreamID
}

// CommitDMLResponse carries the DML commit timestamp.
type CommitDMLResponse struct {
	CommitTS truetime.Timestamp
}

// GCRequest triggers a garbage-collection / groomer pass (§5.4.3).
type GCRequest struct {
	// Retention is how long deleted fragments are kept readable so
	// running queries do not fail; 0 uses the server default.
	Retention truetime.Timestamp
}

// GCResponse reports what was collected.
type GCResponse struct {
	FragmentsDeleted int
}

// ---- Snapshot lease messages (SMS) ----
//
// A lease pins a table snapshot: while it is unexpired, neither the
// groomer nor heartbeat GC may physically delete a fragment that is
// still visible at the lease's snapshot timestamp. Read sessions hold
// one lease each for their lifetime.

// AcquireLeaseRequest pins Table at SnapshotTS for TTL.
type AcquireLeaseRequest struct {
	Table      meta.TableID
	SnapshotTS truetime.Timestamp
	TTL        truetime.Timestamp // lease duration in clock units
}

// AcquireLeaseResponse identifies the durable lease record. SnapshotTS
// echoes the pinned snapshot (resolved server-side when the request
// passed 0), so the holder can plan its reads at exactly the protected
// timestamp.
type AcquireLeaseResponse struct {
	LeaseID    string
	SnapshotTS truetime.Timestamp
	Expires    truetime.Timestamp
}

// RenewLeaseRequest extends an existing lease by TTL from now.
type RenewLeaseRequest struct {
	Table   meta.TableID
	LeaseID string
	TTL     truetime.Timestamp
}

// RenewLeaseResponse carries the new expiry. Renewing an expired or
// unknown lease fails with ErrCodeLeaseExpired.
type RenewLeaseResponse struct {
	Expires truetime.Timestamp
}

// ReleaseLeaseRequest drops a lease (session close). Idempotent.
type ReleaseLeaseRequest struct {
	Table   meta.TableID
	LeaseID string
}

// ReleaseLeaseResponse acknowledges.
type ReleaseLeaseResponse struct{}

// ErrCodeLeaseExpired is returned when renewing a lease that no longer
// exists (expired and collected, or never granted).
const ErrCodeLeaseExpired = "LEASE_EXPIRED"

// ---- Read-session messages ----

// OpenReadSessionRequest opens a session over Table pinned at
// SnapshotTS (0 = now), asking for up to MaxShards parallel shards.
// Where optionally carries a SQL predicate (the text after WHERE) for
// pushdown; Columns optionally projects the batch columns. MinSeq,
// when positive, serves only rows with storage sequence strictly
// greater than it — the change-stream form an incremental consumer
// uses to read just the delta since its last applied sequence.
type OpenReadSessionRequest struct {
	Table      meta.TableID
	SnapshotTS truetime.Timestamp
	MaxShards  int
	Where      string
	Columns    []string
	MinSeq     int64
}

// ShardInfo describes one shard handle of a session.
type ShardInfo struct {
	ID string
	// PlannedRows is the row count known from fragment metadata at
	// planning time; live streamlet tails contribute an estimate of 0.
	PlannedRows int64
}

// OpenReadSessionResponse returns the shard handles plus planning
// statistics (Big Metadata pruning, §7.2).
type OpenReadSessionResponse struct {
	SessionID        string
	SnapshotTS       truetime.Timestamp
	Schema           *schema.Schema
	Shards           []ShardInfo
	AssignmentsTotal int
	AssignmentsPrune int
}

// CloseReadSessionRequest ends a session and releases its lease.
type CloseReadSessionRequest struct {
	SessionID string
}

// CloseReadSessionResponse acknowledges.
type CloseReadSessionResponse struct{}

// SplitShardRequest splits the unserved tail of a straggling shard at a
// row boundary, handing it to an idle reader (liquid sharding).
type SplitShardRequest struct {
	SessionID string
	ShardID   string
}

// SplitShardResponse returns the new shard covering the tail. OK is
// false when the shard has no splittable remainder (already nearly
// drained), in which case NewShard is zero.
type SplitShardResponse struct {
	OK       bool
	NewShard ShardInfo
}

// ReadRowsRequest is the first message on a ReadRows stream: it names
// the shard and the shard-local row offset to start from. A reader
// resuming after a crash passes its last checkpointed offset and
// receives each remaining row exactly once.
type ReadRowsRequest struct {
	SessionID string
	ShardID   string
	Offset    int64
}

// ReadRowsResponse carries one encoded record batch. Offset is the
// shard-local row offset of the batch's first row; the client's next
// checkpoint after consuming it is Offset+RowCount. Done marks the
// final (possibly empty) response of the shard.
type ReadRowsResponse struct {
	Offset   int64
	RowCount int64
	Batch    []byte // recordbatch-encoded frame
	// RowsPruned and RowsDecoded report the leaf-scan disposition of
	// the assignment this batch begins: rows eliminated in encoded
	// space (dictionary-code or whole-run skips) versus rows actually
	// materialized. Carried on the first batch of each assignment the
	// stream scans; zero elsewhere.
	RowsPruned  int64
	RowsDecoded int64
	Done        bool
	// Error carries a failure code (e.g. ErrCodeLeaseExpired) so the
	// stream survives for diagnosis, mirroring AppendResponse.
	Error string
}

// WireSize implements rpc.Sized: record batches dominate response
// traffic and drive the response-direction flow-control window.
func (r *ReadRowsResponse) WireSize() int { return len(r.Batch) + 64 }
