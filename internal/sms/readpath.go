package sms

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/dml"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/spanner"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// SetColossus gives the task direct Colossus access for reconciliation
// and grooming (the SMS inspects log files during reconciliation, §5.6).
func (t *Task) SetColossus(region *colossus.Region) {
	t.mu.Lock()
	t.region = region
	t.mu.Unlock()
}

func (t *Task) colossus() *colossus.Region {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.region
}

// ---- heartbeat ----

func (t *Task) handleHeartbeat(_ context.Context, r *wire.HeartbeatRequest) (*wire.HeartbeatResponse, error) {

	// Record liveness before anything can fail: a heartbeat that reaches
	// us proves the server is up even if its deltas hit a txn abort.
	now := t.clock.Now().Latest
	t.mu.Lock()
	if now > t.lastSeen[r.Server] {
		t.lastSeen[r.Server] = now
	}
	retention := t.retention
	t.mu.Unlock()

	// Debit reported per-table append volume against the byte-rate quotas;
	// over-quota tables come back as shed instructions on the response.
	shed := t.adm.debitBytes(r.TableBytes)

	var unknown, finalized []meta.StreamletID
	var toDelete []meta.FragmentID
	var ackedPaths []string
	tables := map[meta.TableID]bool{}
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		unknown, finalized, toDelete, ackedPaths = nil, nil, nil, nil
		// Instruct GC of the reported fragments the one rule finds
		// collectable (§5.4.3). Only the fragments reported are read, so
		// a round costs what it reports, not what its tables hold.
		pins := map[meta.TableID][]leaseRecord{}
		for _, hb := range r.Streamlets {
			tables[hb.Info.Table] = true
			cur, err := getStreamlet(tx, hb.Info.Table, hb.Info.ID)
			if errors.Is(err, ErrNotFound) {
				unknown = append(unknown, hb.Info.ID)
				continue
			}
			if err != nil {
				return err
			}
			var retired []*meta.FragmentInfo
			// A FINALIZED record is authoritative (§6.2): no report
			// changes it, and a server still writing learns it lost
			// the streamlet (§5.6).
			if cur.State == meta.StreamletFinalized {
				if hb.Info.State != meta.StreamletFinalized {
					finalized = append(finalized, hb.Info.ID)
				}
				for i := range hb.Fragments {
					if f := storedFragment(tx, cur.Table, hb.Fragments[i].ID); f != nil && !f.Live() {
						retired = append(retired, f)
					}
				}
			} else {
				cur.RowCount = hb.Info.RowCount
				cur.NextFragmentIndex = hb.Info.NextFragmentIndex
				tx.Put(streamletKey(cur.Table, cur.ID), meta.MarshalStreamlet(cur))
				if retired, err = upsertFragments(tx, cur, hb.Fragments); err != nil {
					return err
				}
			}
			for _, f := range retired {
				if t.collectable(tx, f, pins, retention) {
					toDelete = append(toDelete, f.ID)
				}
			}
		}
		// Acked deletions: the server deleted the files, so the records
		// and their masks go (§5.4.3), and the file-GC listener hears of
		// the files: the server's own observer reaches only the caches
		// of its process.
		for _, ack := range r.DeletedFragments {
			if raw, ok := tx.Get(fragmentKey(ack.Table, ack.ID)); ok {
				tx.Delete(fragmentKey(ack.Table, ack.ID))
				tx.Delete(maskKey(ack.Table, ack.ID))
				if f, err := meta.UnmarshalFragment(raw); err == nil {
					ackedPaths = append(ackedPaths, f.Path)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.notifyFilesDeleted(ackedPaths)

	out := &wire.HeartbeatResponse{DeleteFragments: toDelete, UnknownStreamlets: unknown, FinalizedStreamlets: finalized, ShedTables: shed}
	if len(tables) > 0 {
		// Current schemas for the server's tables (§5.4.1), read outside
		// the mutating transaction to keep its validation set small.
		_ = t.db.ReadTxn(func(tx *spanner.Txn) error {
			for table := range tables {
				if sc, err := getSchema(tx, table); err == nil {
					if out.Schemas == nil {
						out.Schemas = make(map[meta.TableID]*schema.Schema)
					}
					out.Schemas[table] = sc
				}
			}
			return nil
		})
	}
	return out, nil
}

// handleGC is the "groomer" (§5.4.3): a periodic catch-all that collects
// deleted fragments no Stream Server will ever acknowledge — chiefly ROS
// fragments retired by conversion or reclustering, which have no owning
// streamlet — deleting both their files and their Spanner records once
// past retention.
func (t *Task) handleGC(_ context.Context, r *wire.GCRequest) (*wire.GCResponse, error) {
	retention := r.Retention
	if retention == 0 {
		t.mu.Lock()
		retention = t.retention
		t.mu.Unlock()
	}
	region := t.colossus()
	if region == nil {
		return nil, fmt.Errorf("%w: groomer requires colossus access", ErrUnavailable)
	}
	// Collect candidates under a snapshot, delete files outside any
	// transaction (idempotent), then drop the records transactionally.
	var cands []*meta.FragmentInfo
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		pins := map[meta.TableID][]leaseRecord{}
		for _, kv := range tx.Scan(allFragments) {
			f, err := meta.UnmarshalFragment(kv.Value)
			if err != nil || !t.collectable(tx, f, pins, retention) {
				continue
			}
			// WOS fragments whose streamlet record still exists belong to
			// the heartbeat instruct/ack protocol: the owning server may
			// still report them, and a report arriving after this record
			// is dropped would revive the fragment as live with its files
			// gone. The heartbeat path removes server-local state before
			// the record, so it cannot resurrect; leave those to it.
			if f.Streamlet != "" {
				if _, ok := tx.Get(streamletKey(f.Table, f.Streamlet)); ok {
					continue
				}
			}
			cands = append(cands, f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resp := &wire.GCResponse{}
	var deletedPaths []string
	for _, f := range cands {
		for _, cn := range f.Clusters {
			if cl := region.Cluster(cn); cl != nil {
				_ = cl.Delete(f.Path)
			}
		}
		deletedPaths = append(deletedPaths, f.Path)
		_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
			if _, ok := tx.Get(fragmentKey(f.Table, f.ID)); ok {
				tx.Delete(fragmentKey(f.Table, f.ID))
				tx.Delete(maskKey(f.Table, f.ID))
			}
			return nil
		})
		if err != nil {
			t.notifyFilesDeleted(deletedPaths)
			return nil, err
		}
		resp.FragmentsDeleted++
	}
	t.notifyFilesDeleted(deletedPaths)
	return resp, nil
}

// collectable is the one GC rule (§5.4.3), shared by the heartbeat and
// the groomer: f was deleted more than retention ago, so no running
// query can still need it, and no snapshot lease pins it (lease.go).
// pins memoizes each table's leases within tx; they are read only for
// a fragment past retention.
func (t *Task) collectable(tx *spanner.Txn, f *meta.FragmentInfo, pins map[meta.TableID][]leaseRecord, retention truetime.Timestamp) bool {
	if f.Live() || !t.clock.After(f.DeletionTS+retention) {
		return false
	}
	p, ok := pins[f.Table]
	if !ok {
		p = t.pinnedLeases(tx, f.Table)
		pins[f.Table] = p
	}
	return !leasePinned(f, p)
}

// SetRetention configures how long deleted fragments stay readable.
func (t *Task) SetRetention(d truetime.Timestamp) {
	t.mu.Lock()
	t.retention = d
	t.mu.Unlock()
}

// ---- read view ----

func (t *Task) handleReadView(_ context.Context, r *wire.ReadViewRequest) (*wire.ReadViewResponse, error) {
	ts := r.SnapshotTS
	if ts == 0 {
		// "a query is guaranteed to return data that was just written":
		// pick a snapshot no earlier than every acknowledged append.
		ts = t.clock.Now().Latest
	}
	resp := &wire.ReadViewResponse{Table: r.Table, SnapshotTS: ts}
	err := t.db.SnapshotRead(ts, func(tx *spanner.Txn) error {
		sc, err := getSchema(tx, r.Table)
		if err != nil {
			return err
		}
		resp.Schema = sc

		streams, streamlets, err := tableStreamlets(tx, r.Table)
		if err != nil {
			return err
		}

		// Each record and its mask are read once, here; what the
		// writable-streamlet pass below needs of a fragment is its id,
		// whether ts sees it, and its mask.
		type knownFragment struct {
			id      meta.FragmentID
			visible bool
			mask    *dml.Mask
		}
		knownByStreamlet := map[meta.StreamletID][]knownFragment{}
		for _, kv := range tx.Scan(fragmentPrefix(r.Table)) {
			f, err := meta.UnmarshalFragment(kv.Value)
			if err != nil {
				return err
			}
			kf := knownFragment{id: f.ID, visible: f.VisibleAt(ts)}
			if kf.visible {
				if kf.mask, err = getMask(tx, maskKey(r.Table, f.ID)); err != nil {
					return err
				}
			}
			if f.Streamlet != "" {
				knownByStreamlet[f.Streamlet] = append(knownByStreamlet[f.Streamlet], kf)
			}
			if !kf.visible {
				continue
			}
			rf := wire.ReadFragment{Info: *f, Mask: kf.mask}
			if f.Format == meta.ROS {
				rf.Vis = visibilityOf(nil)
			} else {
				sl, ok := streamlets[f.Streamlet]
				if !ok {
					continue // orphaned; groomer will collect
				}
				// Fragments of writable streamlets are served through the
				// streamlet tail path, where the reader applies the
				// commit rule to the live file.
				if sl.State == meta.StreamletWritable {
					continue
				}
				rf.Vis = visibilityOf(streams[sl.Stream])
				rf.StreamStart = sl.StartOffset + f.StartRow
			}
			resp.Fragments = append(resp.Fragments, rf)
		}

		for _, sl := range streamlets {
			if sl.State != meta.StreamletWritable {
				continue
			}
			rsl := wire.ReadStreamlet{
				Info:  *sl,
				Vis:   visibilityOf(streams[sl.Stream]),
				Epoch: sl.Epoch,
			}
			if rsl.TailMask, err = getMask(tx, tailMaskKey(r.Table, sl.ID)); err != nil {
				return err
			}
			// Fragments already converted (invisible at ts) must be
			// skipped; visible ones carry their deletion masks.
			for _, kf := range knownByStreamlet[sl.ID] {
				switch {
				case !kf.visible:
					rsl.DeletedFragments = append(rsl.DeletedFragments, kf.id)
				case kf.mask != nil:
					if rsl.FragmentMasks == nil {
						rsl.FragmentMasks = map[meta.FragmentID]*dml.Mask{}
					}
					rsl.FragmentMasks[kf.id] = kf.mask
				}
			}
			resp.Streamlets = append(resp.Streamlets, rsl)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// ---- reconciliation (§5.6) ----

func (t *Task) handleReconcile(ctx context.Context, r *wire.ReconcileRequest) (*wire.ReconcileResponse, error) {
	return t.reconcile(ctx, r.Table, r.Stream, r.Streamlet)
}

// reconcile settles a writable streamlet (§5.6, §7.1): it reads the
// committed length off the log-file replicas, fences the old writer,
// and only then stores the result as the FINALIZED record. The fence is
// a sentinel at the end of every live file plus a claim on the next
// fragment path: a header carrying the reconciliation's epoch and a
// sentinel, created at size 0, so the writer's next create fails. Each
// must land on at least one replica; the writer's conditional append
// then fails there, or its degrade onto the other replica finds the
// record FINALIZED. A fence that lands nowhere, or that finds a file
// grown since the scan (the writer moved), fails with a retryable
// ErrUnavailable and finalizes nothing. A FINALIZED streamlet is
// answered from its record.
func (t *Task) reconcile(_ context.Context, table meta.TableID, stream meta.StreamID, id meta.StreamletID) (*wire.ReconcileResponse, error) {
	region := t.colossus()
	if region == nil {
		return nil, fmt.Errorf("%w: reconciliation requires colossus access", ErrUnavailable)
	}
	var slInfo *meta.StreamletInfo
	var settled *wire.ReconcileResponse
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		var err error
		if slInfo, err = getStreamlet(tx, table, id); err == nil && slInfo.State == meta.StreamletFinalized {
			settled, err = recordedState(tx, slInfo)
		}
		return err
	})
	if err != nil || settled != nil {
		return settled, err
	}

	newEpoch := int64(t.clock.Commit())
	prefix := fragment.Prefix(table, id)

	type replicaScan struct {
		cluster *colossus.Cluster
		files   map[string]*fragment.ScanResult
	}
	clusters := slInfo.Clusters[:]
	if clusters[0] == clusters[1] {
		clusters = clusters[:1] // degraded: one replica
	}
	var replicas []replicaScan
	lastIndex := -1
	for _, cn := range clusters {
		c := region.Cluster(cn)
		if c == nil {
			continue
		}
		paths, err := c.List(prefix)
		if err != nil {
			continue
		}
		rs := replicaScan{cluster: c, files: map[string]*fragment.ScanResult{}}
		for _, p := range paths {
			lastIndex = max(lastIndex, fragment.IndexFromPath(p))
			data, err := c.Read(p, 0, -1)
			if err != nil {
				continue
			}
			scan, err := fragment.Scan(data)
			if err != nil {
				continue
			}
			rs.files[p] = scan
		}
		replicas = append(replicas, rs)
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("%w: no replica of streamlet %s reachable", ErrUnavailable, id)
	}

	// Decide, per file, the committed block set (§5.6, §7.1):
	//   1. A successor file's File Map records this file's committed
	//      final size — the authoritative bound.
	//   2. Otherwise the committed set is the longest common prefix of
	//      blocks present in every reachable replica holding the file: an
	//      acknowledged append reached both replicas by definition.
	//   3. A file absent from a reachable replica, with no File Map
	//      bound, holds only unacknowledged data.
	paths := map[string]bool{}
	var headers []fragment.Header
	for _, rs := range replicas {
		for p, scan := range rs.files {
			paths[p] = true
			headers = append(headers, scan.Header)
		}
	}
	frags := make([]meta.FragmentInfo, 0, len(paths))
	var totalRows int64
	var sentinels [][]fenceWrite
	for p := range paths {
		var scans []*fragment.ScanResult
		for _, rs := range replicas {
			if s, ok := rs.files[p]; ok {
				scans = append(scans, s)
			}
		}
		if len(scans) == 0 {
			continue
		}
		hdr := scans[0].Header
		var committed []fragment.Block
		if bound, ok := fragment.FileMapBound(hdr.Index, headers...); ok {
			// Clamp the richest replica's blocks to the File Map bound.
			best := scans[0].Blocks
			for _, s := range scans[1:] {
				if len(s.Blocks) > len(best) {
					best = s.Blocks
				}
			}
			committed = fragment.Within(best, bound)
		} else if len(scans) == len(replicas) {
			// Every reachable replica holds the file; if one lacked it,
			// nothing in it was ever acknowledged.
			committed = fragment.Agreed(scans...)
		}
		info := meta.FragmentInfo{
			ID:             meta.FragmentIDFor(id, hdr.Index),
			Streamlet:      id,
			Table:          table,
			Index:          hdr.Index,
			Format:         meta.WOS,
			Path:           p,
			Clusters:       slInfo.Clusters,
			CommittedBytes: scans[0].End(committed),
			CreationTS:     t.clock.Commit(),
			SchemaVersion:  hdr.SchemaVersion,
			Finalized:      true,
		}
		for _, b := range committed {
			if b.Kind != fragment.BlockData {
				continue
			}
			if info.RowCount == 0 {
				info.StartRow = b.StartRow
			}
			info.RowCount += b.RowCount
			if info.MinRecordTS == 0 || b.Timestamp < info.MinRecordTS {
				info.MinRecordTS = b.Timestamp
			}
			if end := b.Timestamp + truetime.Timestamp(b.RowCount-1); end > info.MaxRecordTS {
				info.MaxRecordTS = end
			}
		}
		totalRows += info.RowCount
		frags = append(frags, info)

		// A file with a footer on any replica was closed by its writer
		// and cannot grow; every other file gets a sentinel at its end.
		var writes []fenceWrite
		closed := false
		for _, rs := range replicas {
			if s, ok := rs.files[p]; ok {
				closed = closed || s.Footer != nil
				writes = append(writes, fenceWrite{rs.cluster, p, s.End(s.Blocks)})
			}
		}
		if !closed {
			sentinels = append(sentinels, writes)
		}
	}

	sentinel := fragment.EncodeBlock(fragment.Block{
		Kind:      fragment.BlockSentinel,
		Timestamp: t.clock.Commit(),
		StartRow:  newEpoch,
	})
	for _, writes := range sentinels {
		if err := fence(id, sentinel, writes); err != nil {
			return nil, err
		}
	}
	claimIndex := lastIndex + 1
	claim := append(fragment.EncodeHeader(fragment.Header{
		StreamletID: string(id),
		Index:       claimIndex,
		WriterEpoch: newEpoch,
	}), sentinel...)
	claims := make([]fenceWrite, len(replicas))
	for i, rs := range replicas {
		claims[i] = fenceWrite{rs.cluster, fragment.Path(table, id, claimIndex), 0}
	}
	if err := fence(id, claim, claims); err != nil {
		return nil, err
	}

	// Persist the reconciled truth.
	var resp *wire.ReconcileResponse
	_, err = t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		cur, err := getStreamlet(tx, table, id)
		if err != nil {
			return err
		}
		if cur.State == meta.StreamletFinalized {
			// Settled meanwhile, by FinalizeStream or another reconcile.
			resp, err = recordedState(tx, cur)
			return err
		}
		if cur.Clusters != slInfo.Clusters {
			// The writer degraded after the scan, onto a replica the
			// fence may have missed; its degraded writes are not counted.
			return fmt.Errorf("%w: streamlet %s degraded during reconciliation", ErrUnavailable, id)
		}
		cur.RowCount = totalRows
		resp = &wire.ReconcileResponse{RowCount: totalRows, Fragments: frags}
		return finalizeStreamlet(tx, cur, frags)
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

// fenceWrite is one replica's part of a fence: bytes appended where the
// scan found the file's end (0 for a file to create).
type fenceWrite struct {
	cluster *colossus.Cluster
	path    string
	at      int64
}

// fence appends data through each write. It holds once one lands; it
// fails retryably if none does, or if any finds its file grown since
// the scan, which means the writer moved on and the scan is stale.
func fence(id meta.StreamletID, data []byte, writes []fenceWrite) error {
	landed := false
	for _, w := range writes {
		_, err := w.cluster.AppendAt(w.path, w.at, data, blockenc.Checksum(data))
		if errors.Is(err, colossus.ErrSizeMismatch) {
			return fmt.Errorf("%w: streamlet %s moved during reconciliation: %v", ErrUnavailable, id, err)
		}
		landed = landed || err == nil
	}
	if !landed {
		return fmt.Errorf("%w: no replica of streamlet %s took the fence", ErrUnavailable, id)
	}
	return nil
}

// recordedState answers a reconciliation from a FINALIZED record, which
// is authoritative (§6.2).
func recordedState(tx *spanner.Txn, sl *meta.StreamletInfo) (*wire.ReconcileResponse, error) {
	resp := &wire.ReconcileResponse{RowCount: sl.RowCount}
	for _, kv := range tx.Scan(streamletFragmentPrefix(sl.Table, sl.ID)) {
		f, err := meta.UnmarshalFragment(kv.Value)
		if err != nil {
			return nil, err
		}
		resp.Fragments = append(resp.Fragments, *f)
	}
	return resp, nil
}

// ---- conversion (§6.1) and DML coordination (§7.3) ----

func (t *Task) handleConversionCandidates(_ context.Context, r *wire.ConversionCandidatesRequest) (*wire.ConversionCandidatesResponse, error) {
	resp := &wire.ConversionCandidatesResponse{}
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		streams, streamlets, err := tableStreamlets(tx, r.Table)
		if err != nil {
			return err
		}
		for _, kv := range tx.Scan(fragmentPrefix(r.Table)) {
			f, err := meta.UnmarshalFragment(kv.Value)
			if err != nil {
				return err
			}
			// Candidates: live, finalized WOS fragments whose rows are
			// all visible (so conversion cannot change visibility).
			if f.Format != meta.WOS || f.DeletionTS != 0 || !f.Finalized || f.RowCount == 0 {
				continue
			}
			sl, ok := streamlets[f.Streamlet]
			if !ok {
				continue
			}
			stream, ok := streams[sl.Stream]
			if !ok {
				continue
			}
			switch stream.Type {
			case meta.Buffered:
				if sl.StartOffset+f.StartRow+f.RowCount > stream.FlushedOffset {
					continue
				}
			case meta.Pending:
				if !stream.Committed {
					continue
				}
			}
			rf := wire.ReadFragment{Info: *f, StreamStart: sl.StartOffset + f.StartRow, Vis: visibilityOf(stream)}
			if rf.Mask, err = getMask(tx, maskKey(r.Table, f.ID)); err != nil {
				return err
			}
			resp.Fragments = append(resp.Fragments, rf)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (t *Task) handleRegisterConversion(_ context.Context, r *wire.RegisterConversionRequest) (*wire.RegisterConversionResponse, error) {
	var handoff truetime.Timestamp
	var added []meta.FragmentInfo
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		added = added[:0]
		// Yield to DML (§7.3): never commit while a statement is running.
		if dmlLocks(tx, r.Table) > 0 {
			return ErrDMLActive
		}
		handoff = t.clock.Commit()
		for _, fid := range r.Old {
			key := fragmentKey(r.Table, fid)
			raw, ok := tx.Get(key)
			if !ok {
				return fmt.Errorf("%w: fragment %s", ErrNotFound, fid)
			}
			f, err := meta.UnmarshalFragment(raw)
			if err != nil {
				return err
			}
			if f.DeletionTS != 0 {
				return fmt.Errorf("%w: fragment %s already converted", ErrAlreadyExists, fid)
			}
			if newID, stable := r.TransferMasks[fid]; stable {
				// Stable 1:1 conversion: the current mask transfers to
				// the identically-shaped new fragment (§7.3).
				if rawMask, ok := tx.Get(maskKey(r.Table, fid)); ok {
					tx.Put(maskKey(r.Table, newID), rawMask)
				}
			} else {
				// The §7.3 mask race: if a DML statement changed this
				// fragment's mask after the optimizer read its rows, the
				// conversion output is stale and must be redone.
				cur, err := getMask(tx, maskKey(r.Table, fid))
				if err != nil {
					return err
				}
				applied, ok := r.AppliedMasks[fid]
				if !ok {
					applied = (&dml.Mask{}).Marshal()
				}
				if string(cur.Clone().Marshal()) != string(applied) {
					return ErrMasksChanged
				}
			}
			f.DeletionTS = handoff
			tx.Put(key, meta.MarshalFragment(f))
		}
		for i := range r.New {
			nf := r.New[i]
			nf.CreationTS = handoff
			key := fragmentKey(r.Table, nf.ID)
			if _, exists := tx.Get(key); exists {
				return fmt.Errorf("%w: fragment %s", ErrAlreadyExists, nf.ID)
			}
			tx.Put(key, meta.MarshalFragment(&nf))
			if m, ok := r.NewMasks[nf.ID]; ok && !m.Empty() {
				tx.Put(maskKey(r.Table, nf.ID), m.Marshal())
			}
			added = append(added, nf)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.notifyFragments(r.Table, added, r.Old)
	return &wire.RegisterConversionResponse{}, nil
}

// dmlLocks is the number of DML statements running on the table.
func dmlLocks(tx *spanner.Txn, table meta.TableID) int {
	raw, _ := tx.Get(dmlLockKey(table))
	n, _ := strconv.Atoi(string(raw))
	return n
}

func (t *Task) handleBeginDML(_ context.Context, r *wire.BeginDMLRequest) (*wire.BeginDMLResponse, error) {
	var token int64
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		tx.Put(dmlLockKey(r.Table), []byte(strconv.Itoa(dmlLocks(tx, r.Table)+1)))
		token = int64(t.clock.Commit())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.BeginDMLResponse{Token: token}, nil
}

func (t *Task) handleEndDML(_ context.Context, r *wire.EndDMLRequest) (*wire.EndDMLResponse, error) {
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		tx.Put(dmlLockKey(r.Table), []byte(strconv.Itoa(max(dmlLocks(tx, r.Table)-1, 0))))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.EndDMLResponse{}, nil
}

func (t *Task) handleCommitDML(_ context.Context, r *wire.CommitDMLRequest) (*wire.CommitDMLResponse, error) {
	var commitTS truetime.Timestamp
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		commitTS = t.clock.Commit()
		for fid, m := range r.FragmentMasks {
			if err := addMask(tx, maskKey(r.Table, fid), m); err != nil {
				return err
			}
		}
		for slid, m := range r.TailMasks {
			if err := addMask(tx, tailMaskKey(r.Table, slid), m); err != nil {
				return err
			}
			// Map the merged mask onto the fragments registered so far: a
			// streamlet finalized since the statement planned is read
			// through them alone, and nothing reports them again.
			sl, err := getStreamlet(tx, r.Table, slid)
			if err != nil {
				return err
			}
			var live []meta.FragmentInfo
			for _, kv := range tx.Scan(streamletFragmentPrefix(r.Table, slid)) {
				f, err := meta.UnmarshalFragment(kv.Value)
				if err != nil {
					return err
				}
				if f.DeletionTS == 0 {
					live = append(live, *f)
				}
			}
			if err := mapTailMask(tx, sl, live); err != nil {
				return err
			}
		}
		// Reinserted rows become visible at the same commit (§7.3).
		for _, sid := range r.ReinsertStreams {
			stream, err := getStream(tx, sid)
			if err != nil {
				return err
			}
			if stream.Type != meta.Pending {
				return fmt.Errorf("%w: reinsert stream %s must be PENDING", ErrBadRequest, sid)
			}
			stream.Committed = true
			stream.CommitTS = commitTS
			tx.Put(streamKey(sid), meta.MarshalStream(stream))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.CommitDMLResponse{CommitTS: commitTS}, nil
}

// tableStreamlets returns the table's streamlets by id and the streams
// they belong to, for visibility mapping.
func tableStreamlets(tx *spanner.Txn, table meta.TableID) (map[meta.StreamID]*meta.StreamInfo, map[meta.StreamletID]*meta.StreamletInfo, error) {
	streams := map[meta.StreamID]*meta.StreamInfo{}
	streamlets := map[meta.StreamletID]*meta.StreamletInfo{}
	for _, kv := range tx.Scan(streamletPrefix(table)) {
		sl, err := meta.UnmarshalStreamlet(kv.Value)
		if err != nil {
			return nil, nil, err
		}
		streamlets[sl.ID] = sl
		if _, ok := streams[sl.Stream]; !ok {
			if s, err := getStream(tx, sl.Stream); err == nil {
				streams[sl.Stream] = s
			}
		}
	}
	return streams, streamlets, nil
}

// visibilityOf is what a reader needs of a stream to apply its commit
// rule; a nil stream (a ROS fragment, or a stream record gone) is
// committed and unbuffered.
func visibilityOf(s *meta.StreamInfo) wire.StreamVisibility {
	if s == nil {
		return wire.StreamVisibility{Type: meta.Unbuffered, Committed: true}
	}
	return wire.StreamVisibility{
		Type:          s.Type,
		FlushedOffset: s.FlushedOffset,
		Committed:     s.Committed,
		CommitTS:      s.CommitTS,
		Finalized:     s.Finalized,
	}
}
