// Package sms implements the Stream Metadata Server — Vortex's control
// plane (§5.2). An SMS task manages the physical metadata of Streams,
// Streamlets and Fragments for the tables Slicer assigns to it, backed
// by a Spanner database that also holds each table's logical metadata
// (schema, partitioning, clustering). Because Slicer's assignment is
// only eventually consistent, two tasks may briefly both manage a table;
// every mutation here goes through a Spanner transaction, which is what
// keeps that inconsistency harmless (§5.2.1).
package sms

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"vortex/internal/colossus"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/spanner"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// API errors (matched with errors.Is by the client library).
var (
	ErrNotFound        = errors.New("sms: not found")
	ErrAlreadyExists   = errors.New("sms: already exists")
	ErrStreamFinalized = errors.New("sms: stream is finalized")
	ErrBadRequest      = errors.New("sms: bad request")
	ErrUnavailable     = errors.New("sms: unavailable")
	ErrMasksChanged    = errors.New("sms: deletion masks changed during conversion")
	ErrDMLActive       = errors.New("sms: yielding to active DML")
)

// FragmentListener observes committed fragment-set changes; the region
// wires Big Metadata's indexer here (§6.2).
type FragmentListener interface {
	FragmentsChanged(table meta.TableID, added []meta.FragmentInfo, deleted []meta.FragmentID)
}

// FileGCListener observes fragment files physically deleted from
// Colossus: by the groomer, and by Stream Servers on a heartbeat's
// instruction, heard of when they ack it. The region fans this out to client read caches: Spanner
// is MVCC, so an old-snapshot read view still lists a GC'd fragment, and
// invalidation is the only thing keeping a cache from serving its bytes
// after the file is gone.
type FileGCListener interface {
	FragmentFilesDeleted(paths []string)
}

// Task is one SMS task.
type Task struct {
	addr   string
	db     *spanner.DB
	clock  truetime.Clock
	net    rpc.Transport
	placer *Placer

	mu         sync.Mutex
	srv        *rpc.Server
	listener   FragmentListener
	gcListener FileGCListener
	region     *colossus.Region

	// lastSeen records, per Stream Server address, the TrueTime latest
	// bound of its most recent heartbeat — the liveness signal coalesced
	// heartbeats must keep fresh.
	lastSeen map[string]truetime.Timestamp

	// adm is the admission-control state (quotas + token buckets).
	adm *admission

	// retention is how long deleted fragments stay readable (§5.4.3).
	retention truetime.Timestamp
}

// spanner key helpers.
func tableKey(t meta.TableID) string   { return "tables/" + string(t) }
func streamKey(s meta.StreamID) string { return "streams/" + string(s) }
func streamletKey(t meta.TableID, id meta.StreamletID) string {
	return fmt.Sprintf("streamlets/%s/%s", t, id)
}
func streamletPrefix(t meta.TableID) string { return fmt.Sprintf("streamlets/%s/", t) }
func fragmentKey(t meta.TableID, id meta.FragmentID) string {
	return fmt.Sprintf("fragments/%s/%s", t, id)
}
func fragmentPrefix(t meta.TableID) string { return fmt.Sprintf("fragments/%s/", t) }

// streamletFragmentPrefix prefixes the records of a streamlet's WOS
// fragments, whose ids meta.FragmentIDFor derives from the streamlet's.
func streamletFragmentPrefix(t meta.TableID, id meta.StreamletID) string {
	return fmt.Sprintf("fragments/%s/%s/", t, id)
}

// allFragments prefixes every table's fragment records.
const allFragments = "fragments/"

func maskKey(t meta.TableID, id meta.FragmentID) string {
	return fmt.Sprintf("masks/%s/%s", t, id)
}
func tailMaskKey(t meta.TableID, id meta.StreamletID) string {
	return fmt.Sprintf("tailmasks/%s/%s", t, id)
}
func dmlLockKey(t meta.TableID) string { return "dmllock/" + string(t) }

// New creates an SMS task and registers its handlers on net at addr.
func New(addr string, db *spanner.DB, net rpc.Transport, placer *Placer) *Task {
	t := &Task{
		addr:      addr,
		db:        db,
		clock:     db.Clock(),
		net:       net,
		placer:    placer,
		lastSeen:  make(map[string]truetime.Timestamp),
		adm:       newAdmission(db.Clock()),
		retention: truetime.Timestamp(0),
	}
	srv := rpc.NewServer()
	wire.CreateTable.Handle(srv, t.handleCreateTable)
	wire.GetTable.Handle(srv, t.handleGetTable)
	wire.UpdateSchema.Handle(srv, t.handleUpdateSchema)
	wire.CreateStream.Handle(srv, t.handleCreateStream)
	wire.GetStream.Handle(srv, t.handleGetStream)
	wire.GetWritableStreamlet.Handle(srv, t.handleGetWritableStreamlet)
	wire.FlushStream.Handle(srv, t.handleFlushStream)
	wire.FinalizeStream.Handle(srv, t.handleFinalizeStream)
	wire.BatchCommit.Handle(srv, t.handleBatchCommit)
	wire.Heartbeat.Handle(srv, t.handleHeartbeat)
	wire.ReadView.Handle(srv, t.handleReadView)
	wire.Reconcile.Handle(srv, t.handleReconcile)
	wire.ConversionCandidates.Handle(srv, t.handleConversionCandidates)
	wire.RegisterConversion.Handle(srv, t.handleRegisterConversion)
	wire.BeginDML.Handle(srv, t.handleBeginDML)
	wire.EndDML.Handle(srv, t.handleEndDML)
	wire.CommitDML.Handle(srv, t.handleCommitDML)
	wire.GC.Handle(srv, t.handleGC)
	wire.DegradeStreamlet.Handle(srv, t.handleDegradeStreamlet)
	wire.AcquireLease.Handle(srv, t.handleAcquireLease)
	wire.RenewLease.Handle(srv, t.handleRenewLease)
	wire.ReleaseLease.Handle(srv, t.handleReleaseLease)
	t.srv = srv
	net.Register(addr, srv)
	return t
}

// Addr returns the task's transport address.
func (t *Task) Addr() string { return t.addr }

// Register re-registers the task's handlers on the network. SMS tasks
// are stateless over Spanner (§5.2), so a "restart" after a chaos crash
// is exactly this: the same durable state served again at the same addr.
func (t *Task) Register() {
	t.mu.Lock()
	srv := t.srv
	t.mu.Unlock()
	t.net.Register(t.addr, srv)
}

// SetFragmentListener installs the committed-fragment-change observer.
func (t *Task) SetFragmentListener(l FragmentListener) {
	t.mu.Lock()
	t.listener = l
	t.mu.Unlock()
}

func (t *Task) notifyFragments(table meta.TableID, added []meta.FragmentInfo, deleted []meta.FragmentID) {
	t.mu.Lock()
	l := t.listener
	t.mu.Unlock()
	if l != nil {
		l.FragmentsChanged(table, added, deleted)
	}
}

// SetFileGCListener installs the groomer's file-deletion observer.
func (t *Task) SetFileGCListener(l FileGCListener) {
	t.mu.Lock()
	t.gcListener = l
	t.mu.Unlock()
}

func (t *Task) notifyFilesDeleted(paths []string) {
	if len(paths) == 0 {
		return
	}
	t.mu.Lock()
	l := t.gcListener
	t.mu.Unlock()
	if l != nil {
		l.FragmentFilesDeleted(paths)
	}
}

// ---- table / schema ----

func (t *Task) handleCreateTable(_ context.Context, r *wire.CreateTableRequest) (*wire.CreateTableResponse, error) {
	if r.Table == "" || r.Schema == nil {
		return nil, fmt.Errorf("%w: table and schema required", ErrBadRequest)
	}
	if err := r.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		if _, exists := tx.Get(tableKey(r.Table)); exists {
			return fmt.Errorf("%w: table %s", ErrAlreadyExists, r.Table)
		}
		tx.Put(tableKey(r.Table), r.Schema.Marshal())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.CreateTableResponse{}, nil
}

func getSchema(tx *spanner.Txn, table meta.TableID) (*schema.Schema, error) {
	raw, ok := tx.Get(tableKey(table))
	if !ok {
		return nil, fmt.Errorf("%w: table %s", ErrNotFound, table)
	}
	return schema.Unmarshal(raw)
}

func (t *Task) handleGetTable(_ context.Context, r *wire.GetTableRequest) (*wire.GetTableResponse, error) {
	var sc *schema.Schema
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		var err error
		sc, err = getSchema(tx, r.Table)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &wire.GetTableResponse{Schema: sc}, nil
}

func (t *Task) handleUpdateSchema(_ context.Context, r *wire.UpdateSchemaRequest) (*wire.UpdateSchemaResponse, error) {
	var evolved *schema.Schema
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		cur, err := getSchema(tx, r.Table)
		if err != nil {
			return err
		}
		// The field is already there as asked: an add that landed and
		// is retried answers the schema it made, so it is safe to retry.
		if f := cur.Field(r.Field.Name); f != nil && f.Equal(r.Field) {
			evolved = cur
			return nil
		}
		evolved, err = cur.AddField(r.Field)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		tx.Put(tableKey(r.Table), evolved.Marshal())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.UpdateSchemaResponse{Schema: evolved}, nil
}

// ---- streams ----

func (t *Task) handleCreateStream(_ context.Context, r *wire.CreateStreamRequest) (*wire.CreateStreamResponse, error) {
	var info meta.StreamInfo
	var sc *schema.Schema
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		var err error
		sc, err = getSchema(tx, r.Table)
		if err != nil {
			return err
		}
		info = meta.StreamInfo{
			ID:        meta.NewStreamID(),
			Table:     r.Table,
			Type:      r.Type,
			CreatedAt: t.clock.Commit(),
		}
		tx.Put(streamKey(info.ID), meta.MarshalStream(&info))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.CreateStreamResponse{Stream: info, Schema: sc}, nil
}

func getStream(tx *spanner.Txn, id meta.StreamID) (*meta.StreamInfo, error) {
	raw, ok := tx.Get(streamKey(id))
	if !ok {
		return nil, fmt.Errorf("%w: stream %s", ErrNotFound, id)
	}
	return meta.UnmarshalStream(raw)
}

func getStreamlet(tx *spanner.Txn, table meta.TableID, id meta.StreamletID) (*meta.StreamletInfo, error) {
	raw, ok := tx.Get(streamletKey(table, id))
	if !ok {
		return nil, fmt.Errorf("%w: streamlet %s", ErrNotFound, id)
	}
	return meta.UnmarshalStreamlet(raw)
}

func (t *Task) handleGetStream(_ context.Context, r *wire.GetStreamRequest) (*wire.GetStreamResponse, error) {
	var info *meta.StreamInfo
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		var err error
		info, err = getStream(tx, r.Stream)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &wire.GetStreamResponse{Stream: *info}, nil
}

// streamletsOf returns the stream's streamlets in sequence order.
func streamletsOf(tx *spanner.Txn, table meta.TableID, stream meta.StreamID) ([]*meta.StreamletInfo, error) {
	var out []*meta.StreamletInfo
	for _, kv := range tx.Scan(streamletPrefix(table)) {
		sl, err := meta.UnmarshalStreamlet(kv.Value)
		if err != nil {
			return nil, err
		}
		if sl.Stream == stream {
			out = append(out, sl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

func (t *Task) handleGetWritableStreamlet(ctx context.Context, r *wire.GetWritableStreamletRequest) (*wire.GetWritableStreamletResponse, error) {
	for attempt := 0; attempt < 4; attempt++ {
		var (
			sl, stale  *meta.StreamletInfo
			sc         *schema.Schema
			created    bool
			tokenTaken bool
		)
		_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
			sl, stale, sc, created = nil, nil, nil, false
			stream, err := getStream(tx, r.Stream)
			if err != nil {
				return err
			}
			if stream.Finalized {
				return fmt.Errorf("%w: %s", ErrStreamFinalized, stream.ID)
			}
			sc, err = getSchema(tx, stream.Table)
			if err != nil {
				return err
			}
			sls, err := streamletsOf(tx, stream.Table, stream.ID)
			if err != nil {
				return err
			}
			// An existing writable streamlet is handed out as-is, unless
			// the client just failed against its server.
			if n := len(sls); n > 0 && sls[n-1].State == meta.StreamletWritable {
				last := sls[n-1]
				if r.ExcludeServer == "" || last.Server != r.ExcludeServer {
					sl = last
					return nil
				}
				// The client reports the server failed: the streamlet
				// is settled by reconciliation, which fences the server
				// before it finalizes (§5.6).
				stale = last
				return nil
			}
			// Create the next streamlet — first pay the creation budget.
			// The tokenTaken flag lives outside the closure so a Spanner
			// txn retry doesn't consume a second token for one creation.
			if !tokenTaken {
				if err := t.adm.admitStreamlet(stream.Table); err != nil {
					return err
				}
				tokenTaken = true
			}
			var start int64
			for _, prev := range sls {
				start += prev.RowCount
			}
			addr, clusters, err := t.placer.Pick(r.ExcludeServer)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrUnavailable, err)
			}
			next := &meta.StreamletInfo{
				ID:          meta.StreamletIDFor(stream.ID, stream.NextStreamletSeq),
				Stream:      stream.ID,
				Table:       stream.Table,
				Seq:         stream.NextStreamletSeq,
				Server:      addr,
				Clusters:    clusters,
				StartOffset: start,
				State:       meta.StreamletWritable,
				Epoch:       int64(t.clock.Commit()),
			}
			stream.NextStreamletSeq++
			tx.Put(streamKey(stream.ID), meta.MarshalStream(stream))
			tx.Put(streamletKey(stream.Table, next.ID), meta.MarshalStreamlet(next))
			sl = next
			created = true
			return nil
		})
		if err != nil {
			return nil, err
		}
		if stale != nil {
			if _, err := t.reconcile(ctx, stale.Table, stale.Stream, stale.ID); err != nil {
				return nil, err
			}
			continue
		}
		if !created {
			return &wire.GetWritableStreamletResponse{Streamlet: *sl, Schema: sc, Epoch: sl.Epoch}, nil
		}
		// Instruct the chosen Stream Server to host the streamlet (§5.2).
		_, err = wire.CreateStreamlet.Call(ctx, t.net, sl.Server, &wire.CreateStreamletRequest{
			Info:   *sl,
			Schema: sc,
			Epoch:  sl.Epoch,
		})
		if err == nil {
			return &wire.GetWritableStreamletResponse{Streamlet: *sl, Schema: sc, Epoch: sl.Epoch}, nil
		}
		// The server is unreachable: close the empty streamlet and retry
		// placement elsewhere.
		failedServer := sl.Server
		if _, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
			cur, err := getStreamlet(tx, sl.Table, sl.ID)
			if err != nil {
				return err
			}
			return finalizeStreamlet(tx, cur, nil)
		}); err != nil {
			return nil, err
		}
		r = &wire.GetWritableStreamletRequest{Stream: r.Stream, ExcludeServer: failedServer}
	}
	return nil, fmt.Errorf("%w: no stream server accepted the streamlet", ErrUnavailable)
}

func (t *Task) handleFlushStream(ctx context.Context, r *wire.FlushStreamRequest) (*wire.FlushStreamResponse, error) {
	var frontier int64
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		stream, err := getStream(tx, r.Stream)
		if err != nil {
			return err
		}
		if stream.Type != meta.Buffered {
			return fmt.Errorf("%w: FlushStream on a %v stream", ErrBadRequest, stream.Type)
		}
		if r.Offset > stream.FlushedOffset {
			// Validate against the stream's current length; the SMS cache
			// may be stale, so consult the Stream Server when needed.
			length, err := t.streamLength(ctx, tx, stream)
			if err != nil {
				return err
			}
			if r.Offset > length {
				return fmt.Errorf("%w: flush offset %d beyond stream length %d", ErrBadRequest, r.Offset, length)
			}
			stream.FlushedOffset = r.Offset
			tx.Put(streamKey(stream.ID), meta.MarshalStream(stream))
		}
		frontier = stream.FlushedOffset
		if r.Offset > frontier {
			frontier = r.Offset
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.FlushStreamResponse{FlushedOffset: frontier}, nil
}

// streamLength computes the stream's current length, asking the Stream
// Server for the writable streamlet's live row count.
func (t *Task) streamLength(ctx context.Context, tx *spanner.Txn, stream *meta.StreamInfo) (int64, error) {
	sls, err := streamletsOf(tx, stream.Table, stream.ID)
	if err != nil {
		return 0, err
	}
	var length int64
	for _, sl := range sls {
		if sl.State == meta.StreamletWritable {
			resp, err := wire.StreamletState.Call(ctx, t.net, sl.Server, &wire.StreamletStateRequest{Streamlet: sl.ID})
			if err == nil {
				length += resp.RowCount
				continue
			}
			// Fall back to the cached count.
		}
		length += sl.RowCount
	}
	return length, nil
}

func (t *Task) handleFinalizeStream(ctx context.Context, r *wire.FinalizeStreamRequest) (*wire.FinalizeStreamResponse, error) {
	// First close the writable streamlet on its server (outside the txn).
	var writable *meta.StreamletInfo
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		stream, err := getStream(tx, r.Stream)
		if err != nil {
			return err
		}
		sls, err := streamletsOf(tx, stream.Table, stream.ID)
		if err != nil {
			return err
		}
		if n := len(sls); n > 0 && sls[n-1].State == meta.StreamletWritable {
			writable = sls[n-1]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if writable != nil {
		fin, err := wire.FinalizeStreamlet.Call(ctx, t.net, writable.Server, &wire.FinalizeStreamletRequest{Streamlet: writable.ID})
		if err != nil {
			// Server unreachable: settle the streamlet by reconciliation.
			if _, rerr := t.reconcile(ctx, writable.Table, writable.Stream, writable.ID); rerr != nil {
				return nil, fmt.Errorf("finalize: server unreachable and reconcile failed: %w", rerr)
			}
		} else if _, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
			sl, err := getStreamlet(tx, writable.Table, writable.ID)
			if err != nil || sl.State == meta.StreamletFinalized {
				return err // a FINALIZED record is authoritative (§6.2)
			}
			sl.RowCount = fin.RowCount
			return finalizeStreamlet(tx, sl, fin.Fragments)
		}); err != nil {
			return nil, err
		}
	}
	var total int64
	_, err = t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		total = 0
		stream, err := getStream(tx, r.Stream)
		if err != nil {
			return err
		}
		stream.Finalized = true
		sls, err := streamletsOf(tx, stream.Table, stream.ID)
		if err != nil {
			return err
		}
		for _, sl := range sls {
			total += sl.RowCount
		}
		tx.Put(streamKey(stream.ID), meta.MarshalStream(stream))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.FinalizeStreamResponse{RowCount: total}, nil
}

// handleDegradeStreamlet durably narrows a streamlet's replica set —
// the §5.6 fallback to single-cluster replication during a Colossus
// outage. The owning Stream Server calls this synchronously before
// acknowledging its first degraded write, so reconciliation and readers
// never consult the out cluster's stale replica. Idempotent. On a
// FINALIZED record the answer says so: a reconciliation fenced the
// server, which must not acknowledge the write it was degrading.
func (t *Task) handleDegradeStreamlet(_ context.Context, r *wire.DegradeStreamletRequest) (*wire.DegradeStreamletResponse, error) {
	resp := &wire.DegradeStreamletResponse{}
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		sl, err := getStreamlet(tx, r.Table, r.Streamlet)
		if err != nil {
			return err
		}
		resp.Finalized = sl.State == meta.StreamletFinalized
		sl.Clusters = r.Clusters
		tx.Put(streamletKey(r.Table, r.Streamlet), meta.MarshalStreamlet(sl))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (t *Task) handleBatchCommit(_ context.Context, r *wire.BatchCommitRequest) (*wire.BatchCommitResponse, error) {
	if len(r.Streams) == 0 {
		return nil, fmt.Errorf("%w: no streams", ErrBadRequest)
	}
	var commitTS truetime.Timestamp
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		commitTS = t.clock.Commit()
		for _, id := range r.Streams {
			stream, err := getStream(tx, id)
			if err != nil {
				return err
			}
			if stream.Type != meta.Pending {
				return fmt.Errorf("%w: stream %s is %v, not PENDING", ErrBadRequest, id, stream.Type)
			}
			if !stream.Finalized {
				return fmt.Errorf("%w: stream %s must be finalized before commit", ErrBadRequest, id)
			}
			if stream.Committed {
				continue // idempotent
			}
			stream.Committed = true
			stream.CommitTS = commitTS
			tx.Put(streamKey(id), meta.MarshalStream(stream))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.BatchCommitResponse{CommitTS: commitTS}, nil
}

// finalizeStreamlet is the one place a streamlet becomes FINALIZED:
// it stores sl in that state and registers frags, so no finalization
// can skip fragment and tail-mask mapping (§6.2, §7.3). Caller is
// inside a read-write transaction.
func finalizeStreamlet(tx *spanner.Txn, sl *meta.StreamletInfo, frags []meta.FragmentInfo) error {
	sl.State = meta.StreamletFinalized
	tx.Put(streamletKey(sl.Table, sl.ID), meta.MarshalStreamlet(sl))
	_, err := upsertFragments(tx, sl, frags)
	return err
}

// upsertFragments merges server-reported fragment state into Spanner,
// honouring conversion (a deleted fragment's record is never revived),
// and maps the streamlet's tail mask onto the fragments it stored. It
// returns the records of the reported fragments already deleted, the
// ones GC may collect. Caller is inside a read-write transaction.
func upsertFragments(tx *spanner.Txn, sl *meta.StreamletInfo, frags []meta.FragmentInfo) (retired []*meta.FragmentInfo, err error) {
	var stored []meta.FragmentInfo
	for i := range frags {
		f := frags[i]
		if existing := storedFragment(tx, sl.Table, f.ID); existing != nil {
			if !existing.Live() {
				retired = append(retired, existing)
				continue // already converted; server data is stale
			}
			f.CreationTS = existing.CreationTS // the SMS-side creation timestamp stays
		}
		tx.Put(fragmentKey(sl.Table, f.ID), meta.MarshalFragment(&f))
		stored = append(stored, f)
	}
	return retired, mapTailMask(tx, sl, stored)
}

// storedFragment is fragment id's record, or nil if there is none or it
// does not parse (a report then overwrites it).
func storedFragment(tx *spanner.Txn, table meta.TableID, id meta.FragmentID) *meta.FragmentInfo {
	raw, ok := tx.Get(fragmentKey(table, id))
	if !ok {
		return nil
	}
	f, _ := meta.UnmarshalFragment(raw)
	return f
}

// mapTailMask is the one conversion of a streamlet's tail mask, kept in
// stream offsets, into fragment-local rows (§7.3): fragment f covers
// stream offsets [sl.StartOffset+f.StartRow, +f.RowCount), and the
// part of the tail mask inside that span is merged into f's mask.
func mapTailMask(tx *spanner.Txn, sl *meta.StreamletInfo, frags []meta.FragmentInfo) error {
	tail, err := getMask(tx, tailMaskKey(sl.Table, sl.ID))
	if err != nil || tail.Empty() {
		return err
	}
	for i := range frags {
		f := &frags[i]
		if f.RowCount == 0 {
			continue
		}
		if err := addMask(tx, maskKey(sl.Table, f.ID), tail.Shift(-(sl.StartOffset+f.StartRow), f.RowCount)); err != nil {
			return err
		}
	}
	return nil
}

// getMask is the one reader of a stored deletion mask: nil unless the
// mask at key deletes rows. A mask that does not parse fails the
// transaction; read as none, it would serve deleted rows again.
func getMask(tx *spanner.Txn, key string) (*dml.Mask, error) {
	raw, ok := tx.Get(key)
	if !ok {
		return nil, nil
	}
	m, err := dml.Unmarshal(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", key, err)
	}
	if m.Empty() {
		return nil, nil
	}
	return m, nil
}

// addMask merges m into the mask stored at key. m may come from a peer,
// so a range Mask.Add would refuse is refused here too.
func addMask(tx *spanner.Txn, key string, m *dml.Mask) error {
	if m.Empty() {
		return nil
	}
	for _, rg := range m.Ranges {
		if rg.Start < 0 || rg.End < rg.Start {
			return fmt.Errorf("%w: mask range [%d,%d)", ErrBadRequest, rg.Start, rg.End)
		}
	}
	cur, err := getMask(tx, key)
	if err != nil {
		return err
	}
	if cur == nil {
		cur = &dml.Mask{}
	}
	cur.AddMask(m)
	tx.Put(key, cur.Marshal())
	return nil
}
