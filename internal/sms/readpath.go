package sms

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/dml"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/schema"
	"vortex/internal/spanner"
	"vortex/internal/streamserver"
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
	t.mu.Unlock()

	// Debit reported per-table append volume against the byte-rate quotas;
	// over-quota tables come back as shed instructions on the response.
	shed := t.adm.debitBytes(r.TableBytes)

	var unknown []meta.StreamletID
	var toDelete []meta.FragmentID
	tables := map[meta.TableID]bool{}
	for _, hb := range r.Streamlets {
		tables[hb.Info.Table] = true
	}

	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		unknown, toDelete = nil, nil
		streamletIDs := map[meta.StreamletID]bool{}
		for _, hb := range r.Streamlets {
			streamletIDs[hb.Info.ID] = true
			raw, ok := tx.Get(streamletKey(hb.Info.Table, hb.Info.ID))
			if !ok {
				unknown = append(unknown, hb.Info.ID)
				continue
			}
			cur, err := meta.UnmarshalStreamlet(raw)
			if err != nil {
				return err
			}
			// A finalized streamlet's Spanner record is authoritative
			// (§6.2); stale server reports for it are ignored, except a
			// server-side finalization being absorbed below.
			if cur.State != meta.StreamletFinalized {
				cur.RowCount = hb.Info.RowCount
				cur.NextFragmentIndex = hb.Info.NextFragmentIndex
				cur.State = hb.Info.State
				tx.Put(streamletKey(hb.Info.Table, hb.Info.ID), meta.MarshalStreamlet(cur))
			} else if hb.Info.State != meta.StreamletFinalized {
				continue
			}
			t.upsertFragments(tx, hb.Info.Table, cur, hb.Fragments)
		}
		// Instruct GC of sufficiently old deleted fragments owned by the
		// reporting server's streamlets (§5.4.3). Snapshot leases veto
		// deletion exactly as they do in the groomer — the two GC paths
		// must agree, or an open read session loses files under one of
		// them (the PR 3 race, in lease form).
		for table := range tables {
			pins := t.pinnedLeases(tx, table)
			for _, kv := range tx.Scan(fragmentPrefix(table)) {
				f, err := meta.UnmarshalFragment(kv.Value)
				if err != nil {
					continue
				}
				if streamletIDs[f.Streamlet] && f.DeletionTS != 0 && t.pastRetention(f.DeletionTS) && !leasePinned(f, pins) {
					toDelete = append(toDelete, f.ID)
				}
			}
		}
		// Acked deletions: remove the Spanner records (§5.4.3). Acks may
		// arrive without accompanying streamlet deltas, so match them
		// against the global fragment namespace.
		if len(r.DeletedFragments) > 0 {
			acked := make(map[string]bool, len(r.DeletedFragments))
			for _, fid := range r.DeletedFragments {
				acked["/"+string(fid)] = true
			}
			for _, kv := range tx.Scan("fragments/") {
				for suffix := range acked {
					if strings.HasSuffix(kv.Key, suffix) {
						tx.Delete(kv.Key)
						// masks/<table>/<fid> mirrors fragments/<table>/<fid>.
						tx.Delete("masks/" + strings.TrimPrefix(kv.Key, "fragments/"))
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &wire.HeartbeatResponse{DeleteFragments: toDelete, UnknownStreamlets: unknown, ShedTables: shed}
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
	type cand struct {
		key  string
		info *meta.FragmentInfo
	}
	var cands []cand
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		pins := map[meta.TableID][]leaseRecord{}
		for _, kv := range tx.Scan("fragments/") {
			f, err := meta.UnmarshalFragment(kv.Value)
			if err != nil {
				continue
			}
			if f.DeletionTS == 0 || !t.clock.After(f.DeletionTS+retention) {
				continue
			}
			// Snapshot leases pin fragments still visible at an open read
			// session's snapshot; deleting their files would fail the
			// session's shards mid-scan.
			if _, ok := pins[f.Table]; !ok {
				pins[f.Table] = t.pinnedLeases(tx, f.Table)
			}
			if leasePinned(f, pins[f.Table]) {
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
			cands = append(cands, cand{key: kv.Key, info: f})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resp := &wire.GCResponse{}
	var deletedPaths []string
	for _, c := range cands {
		for _, cn := range c.info.Clusters {
			if cl := region.Cluster(cn); cl != nil {
				_ = cl.Delete(c.info.Path)
			}
		}
		deletedPaths = append(deletedPaths, c.info.Path)
		_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
			if _, ok := tx.Get(c.key); ok {
				tx.Delete(c.key)
				tx.Delete("masks/" + strings.TrimPrefix(c.key, "fragments/"))
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

// pastRetention reports whether a deletion timestamp is old enough that
// no running query can still need the fragment.
func (t *Task) pastRetention(deletedAt truetime.Timestamp) bool {
	t.mu.Lock()
	retention := t.retention
	t.mu.Unlock()
	return t.clock.After(deletedAt + retention)
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

		// Streams and streamlets of the table, for visibility mapping.
		streams := map[meta.StreamID]*meta.StreamInfo{}
		streamlets := map[meta.StreamletID]*meta.StreamletInfo{}
		for _, kv := range tx.Scan(streamletPrefix(r.Table)) {
			sl, err := meta.UnmarshalStreamlet(kv.Value)
			if err != nil {
				return err
			}
			streamlets[sl.ID] = sl
			if _, ok := streams[sl.Stream]; !ok {
				if s, err := getStream(tx, sl.Stream); err == nil {
					streams[sl.Stream] = s
				}
			}
		}
		visOf := func(streamID meta.StreamID) wire.StreamVisibility {
			s, ok := streams[streamID]
			if !ok {
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

		// Each record is parsed once, here; what the writable-streamlet
		// pass below needs of it is its id and whether ts sees it.
		type knownFragment struct {
			id      meta.FragmentID
			visible bool
		}
		knownByStreamlet := map[meta.StreamletID][]knownFragment{}
		for _, kv := range tx.Scan(fragmentPrefix(r.Table)) {
			f, err := meta.UnmarshalFragment(kv.Value)
			if err != nil {
				return err
			}
			visible := f.VisibleAt(ts)
			if f.Streamlet != "" {
				knownByStreamlet[f.Streamlet] = append(knownByStreamlet[f.Streamlet], knownFragment{f.ID, visible})
			}
			if !visible {
				continue
			}
			rf := wire.ReadFragment{Info: *f}
			if raw, ok := tx.Get(maskKey(r.Table, f.ID)); ok {
				if m, err := dml.Unmarshal(raw); err == nil && !m.Empty() {
					rf.Mask = m
				}
			}
			if f.Format == meta.ROS {
				rf.Vis = wire.StreamVisibility{Type: meta.Unbuffered, Committed: true}
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
				rf.Vis = visOf(sl.Stream)
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
				Vis:   visOf(sl.Stream),
				Epoch: sl.Epoch,
			}
			if raw, ok := tx.Get(tailMaskKey(r.Table, sl.ID)); ok {
				if m, err := dml.Unmarshal(raw); err == nil && !m.Empty() {
					rsl.TailMask = m
				}
			}
			// Fragments already converted (invisible at ts) must be
			// skipped; visible ones carry their deletion masks.
			for _, kf := range knownByStreamlet[sl.ID] {
				fid := kf.id
				if !kf.visible {
					rsl.DeletedFragments = append(rsl.DeletedFragments, fid)
					continue
				}
				if rawMask, ok := tx.Get(maskKey(r.Table, fid)); ok {
					if m, err := dml.Unmarshal(rawMask); err == nil && !m.Empty() {
						if rsl.FragmentMasks == nil {
							rsl.FragmentMasks = map[meta.FragmentID]*dml.Mask{}
						}
						rsl.FragmentMasks[fid] = m
					}
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

// reconcile determines a streamlet's true committed length by inspecting
// the log-file replicas, poisons any zombie writer with a sentinel
// record, and persists the reconciled state as authoritative.
func (t *Task) reconcile(_ context.Context, table meta.TableID, stream meta.StreamID, id meta.StreamletID) (*wire.ReconcileResponse, error) {
	region := t.colossus()
	if region == nil {
		return nil, fmt.Errorf("%w: reconciliation requires colossus access", ErrUnavailable)
	}
	var slInfo *meta.StreamletInfo
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		raw, ok := tx.Get(streamletKey(table, id))
		if !ok {
			return fmt.Errorf("%w: streamlet %s", ErrNotFound, id)
		}
		var err error
		slInfo, err = meta.UnmarshalStreamlet(raw)
		return err
	})
	if err != nil {
		return nil, err
	}

	newEpoch := int64(t.clock.Commit())
	prefix := streamserver.StreamletPrefix(table, id)

	type replicaScan struct {
		cluster *colossus.Cluster
		files   map[string]*fragment.ScanResult
	}
	var replicas []replicaScan
	for _, cn := range slInfo.Clusters {
		c := region.Cluster(cn)
		if c == nil || !c.Available() {
			continue
		}
		paths, err := c.List(prefix)
		if err != nil {
			continue
		}
		rs := replicaScan{cluster: c, files: map[string]*fragment.ScanResult{}}
		for _, p := range paths {
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
	boundByIndex := map[int]int64{}
	for _, rs := range replicas {
		for p, scan := range rs.files {
			paths[p] = true
			for _, e := range scan.Header.FileMap {
				if e.CommittedSize > boundByIndex[e.Index] {
					boundByIndex[e.Index] = e.CommittedSize
				}
			}
		}
	}
	frags := make([]meta.FragmentInfo, 0, len(paths))
	var totalRows int64
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
		idx := scans[0].Header.Index
		bound, hasBound := boundByIndex[idx]

		allBlocks := func(s *fragment.ScanResult) []fragment.Block {
			out := append([]fragment.Block(nil), s.CommittedBlocks...)
			if s.TailBlock != nil {
				out = append(out, *s.TailBlock)
			}
			return out
		}
		var committed []fragment.Block
		switch {
		case hasBound:
			// Clamp the richest replica's blocks to the File Map bound.
			best := allBlocks(scans[0])
			for _, s := range scans[1:] {
				if b := allBlocks(s); len(b) > len(best) {
					best = b
				}
			}
			for _, b := range best {
				if b.Offset+b.Size <= bound {
					committed = append(committed, b)
				}
			}
		case len(scans) < len(replicas):
			// A reachable replica lacks the file entirely: nothing in it
			// was ever acknowledged.
		default:
			lists := make([][]fragment.Block, len(scans))
			for i, s := range scans {
				lists[i] = allBlocks(s)
			}
			committed = lists[0]
			for _, l := range lists[1:] {
				n := len(committed)
				if len(l) < n {
					n = len(l)
				}
				k := 0
				for k < n && committed[k].Offset == l[k].Offset && committed[k].Size == l[k].Size {
					k++
				}
				committed = committed[:k]
			}
		}
		size := scans[0].CommittedSize // header end when no blocks
		if len(scans[0].Blocks) > 0 {
			size = scans[0].Blocks[0].Offset
		}
		if n := len(committed); n > 0 {
			size = committed[n-1].Offset + committed[n-1].Size
		}

		hdr := scans[0].Header
		info := meta.FragmentInfo{
			ID:             meta.FragmentIDFor(id, hdr.Index),
			Streamlet:      id,
			Table:          table,
			Index:          hdr.Index,
			Format:         meta.WOS,
			Path:           p,
			Clusters:       slInfo.Clusters,
			CommittedBytes: size,
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

		// Poison the file in every reachable replica: a sentinel at the
		// reconciled size invalidates the old writer's sole-writer
		// assumption (§5.6).
		sentinel := fragment.EncodeBlock(fragment.Block{
			Kind:      fragment.BlockSentinel,
			Timestamp: t.clock.Commit(),
			StartRow:  newEpoch,
		})
		for _, rs := range replicas {
			if s, ok := rs.files[p]; ok {
				end := s.CommittedSize
				if s.TailBlock != nil {
					end = s.TailBlock.Offset + s.TailBlock.Size
				}
				if s.Footer == nil { // finalized files cannot grow anyway
					_, _ = rs.cluster.AppendAt(p, end, sentinel, blockenc.Checksum(sentinel))
				}
			}
		}
	}

	// Persist the reconciled truth.
	_, err = t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		raw, ok := tx.Get(streamletKey(table, id))
		if !ok {
			return fmt.Errorf("%w: streamlet %s", ErrNotFound, id)
		}
		cur, err := meta.UnmarshalStreamlet(raw)
		if err != nil {
			return err
		}
		cur.RowCount = totalRows
		cur.State = meta.StreamletFinalized
		tx.Put(streamletKey(table, id), meta.MarshalStreamlet(cur))
		t.upsertFragments(tx, table, cur, frags)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.ReconcileResponse{RowCount: totalRows, Fragments: frags}, nil
}

// ---- conversion (§6.1) and DML coordination (§7.3) ----

func (t *Task) handleConversionCandidates(_ context.Context, r *wire.ConversionCandidatesRequest) (*wire.ConversionCandidatesResponse, error) {
	resp := &wire.ConversionCandidatesResponse{}
	err := t.db.ReadTxn(func(tx *spanner.Txn) error {
		streams := map[meta.StreamID]*meta.StreamInfo{}
		streamlets := map[meta.StreamletID]*meta.StreamletInfo{}
		for _, kv := range tx.Scan(streamletPrefix(r.Table)) {
			sl, err := meta.UnmarshalStreamlet(kv.Value)
			if err != nil {
				return err
			}
			streamlets[sl.ID] = sl
			if _, ok := streams[sl.Stream]; !ok {
				if s, err := getStream(tx, sl.Stream); err == nil {
					streams[sl.Stream] = s
				}
			}
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
			rf := wire.ReadFragment{Info: *f, StreamStart: sl.StartOffset + f.StartRow}
			rf.Vis = wire.StreamVisibility{
				Type:          stream.Type,
				FlushedOffset: stream.FlushedOffset,
				Committed:     stream.Committed,
				CommitTS:      stream.CommitTS,
				Finalized:     stream.Finalized,
			}
			if raw, ok := tx.Get(maskKey(r.Table, f.ID)); ok {
				if m, err := dml.Unmarshal(raw); err == nil && !m.Empty() {
					rf.Mask = m
				}
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
		if raw, ok := tx.Get(dmlLockKey(r.Table)); ok {
			if n, _ := strconv.Atoi(string(raw)); n > 0 {
				return ErrDMLActive
			}
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
				var curMask []byte = (&dml.Mask{}).Marshal()
				if rawMask, ok := tx.Get(maskKey(r.Table, fid)); ok {
					curMask = rawMask
				}
				applied, ok := r.AppliedMasks[fid]
				if !ok {
					applied = (&dml.Mask{}).Marshal()
				}
				if string(curMask) != string(applied) {
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

func (t *Task) handleBeginDML(_ context.Context, r *wire.BeginDMLRequest) (*wire.BeginDMLResponse, error) {
	var token int64
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		n := 0
		if raw, ok := tx.Get(dmlLockKey(r.Table)); ok {
			n, _ = strconv.Atoi(string(raw))
		}
		tx.Put(dmlLockKey(r.Table), []byte(strconv.Itoa(n+1)))
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
		n := 0
		if raw, ok := tx.Get(dmlLockKey(r.Table)); ok {
			n, _ = strconv.Atoi(string(raw))
		}
		if n > 0 {
			n--
		}
		tx.Put(dmlLockKey(r.Table), []byte(strconv.Itoa(n)))
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
			if m.Empty() {
				continue
			}
			key := maskKey(r.Table, fid)
			cur := &dml.Mask{}
			if raw, ok := tx.Get(key); ok {
				if c, err := dml.Unmarshal(raw); err == nil {
					cur = c
				}
			}
			cur.AddMask(m)
			tx.Put(key, cur.Marshal())
		}
		for slid, m := range r.TailMasks {
			if m.Empty() {
				continue
			}
			key := tailMaskKey(r.Table, slid)
			cur := &dml.Mask{}
			if raw, ok := tx.Get(key); ok {
				if c, err := dml.Unmarshal(raw); err == nil {
					cur = c
				}
			}
			cur.AddMask(m)
			tx.Put(key, cur.Marshal())
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
