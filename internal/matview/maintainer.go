package matview

import (
	"context"
	"fmt"
	"sort"

	"vortex/internal/client"
	"vortex/internal/dataflow"
	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/truetime"
)

// RefreshStats summarizes one maintenance cycle.
type RefreshStats struct {
	// SnapshotTS is the cycle's pinned snapshot: after the cycle the
	// view equals the defining query recomputed at this timestamp.
	SnapshotTS truetime.Timestamp
	// Events is how many change-stream rows were consumed.
	Events int64
	// GroupsChanged is how many distinct groups the deltas touched.
	GroupsChanged int
	// Upserts and Deletes are the view rows written back.
	Upserts, Deletes int
}

// Maintainer drives incremental maintenance for one view. It is not
// safe for concurrent use; run one maintainer per view.
//
// The refresh protocol is exactly-once end to end:
//
//  1. Each base table's delta is read through the exactly-once source
//     connector at a pinned snapshot, with MinSeq set to the table's
//     last applied sequence — already-applied rows never cross the
//     wire — and per-shard offsets checkpointed into the durable store
//     as batches commit, so a crashed source worker resumes without
//     loss or replay.
//  2. Deltas apply to in-memory retractable state (symmetric hash-join
//     index + DeltaGroup accumulators). Nothing external changes yet:
//     a maintainer that dies here loses only work, not correctness —
//     its successor reloads the store and re-reads the same delta.
//  3. Changed view rows are written through the two-stage dataflow
//     sink as primary-keyed UPSERT/DELETE rows. Writes are idempotent
//     by key, so a crash between the sink write and the store commit
//     re-runs the cycle and rewrites identical rows.
//  4. The store commit (Save of AppliedSeq/AppliedTS/live base rows)
//     is the cycle's single commit point.
type Maintainer struct {
	c      *client.Client
	def    *Definition
	store  Store
	shards int

	// SinkPartitions overrides the view-write sink's parallelism
	// (default 2). Deterministic harnesses set 1: the sink's partition
	// workers otherwise interleave storage-sequence allocation.
	SinkPartitions int

	appliedSeq map[meta.TableID]int64
	appliedTS  truetime.Timestamp

	nextHandle int64
	sides      []*sideState // [left] or [left, right]
	groups     map[string]*query.DeltaGroup

	offsets map[string]int64 // in-flight cycle's per-shard source offsets
}

// sideState is one base table's live-row state: rows keyed by handle,
// a primary-key index for retraction, and (joined views) a hash index
// on the join key — one side of the symmetric hash join.
type sideState struct {
	table meta.TableID
	sc    *schema.Schema
	keys  []*sql.ColumnRef // join-key refs in this side's row space; nil when single-table
	other *sideState       // nil when single-table
	left  bool

	byPK map[string][]int64
	rows map[int64]liveRow
	byJK map[string]map[int64]schema.Row

	encCache []byte // rowenc snapshot of rows; nil when stale
}

type liveRow struct {
	row      schema.Row
	jk       string
	joinable bool
}

// NewMaintainer builds a maintainer for def, recovering state from the
// store when a previous incarnation checkpointed there: the persisted
// live base rows replay through the same apply path, deterministically
// reconstructing the join index and every group accumulator.
func NewMaintainer(c *client.Client, def *Definition, store Store, shards int) (*Maintainer, error) {
	if shards <= 0 {
		shards = 2
	}
	m := &Maintainer{
		c:          c,
		def:        def,
		store:      store,
		shards:     shards,
		appliedSeq: map[meta.TableID]int64{},
		groups:     map[string]*query.DeltaGroup{},
		offsets:    map[string]int64{},
	}
	left := &sideState{
		table: def.Left, sc: def.LeftSchema, left: true,
		byPK: map[string][]int64{}, rows: map[int64]liveRow{}, byJK: map[string]map[int64]schema.Row{},
	}
	m.sides = []*sideState{left}
	if def.Right != "" {
		right := &sideState{
			table: def.Right, sc: def.RightSchema,
			byPK: map[string][]int64{}, rows: map[int64]liveRow{}, byJK: map[string]map[int64]schema.Row{},
		}
		left.keys, right.keys = def.Stmt.Join.LeftKeys, def.Stmt.Join.RightKeys
		left.other, right.other = right, left
		m.sides = append(m.sides, right)
	}

	cp, err := store.Load()
	if err != nil {
		return nil, err
	}
	if cp != nil {
		m.appliedTS = cp.AppliedTS
		for t, s := range cp.AppliedSeq {
			m.appliedSeq[t] = s
		}
		discard := map[string]bool{}
		for _, side := range m.sides {
			rows, err := cp.decodeRows(side.table)
			if err != nil {
				return nil, fmt.Errorf("matview: %s: corrupt checkpoint for %s: %w", def.View, side.table, err)
			}
			for _, row := range rows {
				pk, err := side.sc.PrimaryKeyOf(row)
				if err != nil {
					pk = "" // keyless live row: counted, never retractable by key
				}
				if err := m.insertRow(side, pk, row, discard); err != nil {
					return nil, err
				}
			}
		}
	}
	return m, nil
}

// AppliedTS returns the snapshot timestamp of the last committed cycle.
func (m *Maintainer) AppliedTS() truetime.Timestamp { return m.appliedTS }

// Definition returns the view's compiled definition.
func (m *Maintainer) Definition() *Definition { return m.def }

// storeOffsets adapts the maintainer's durable store to the source
// connector's per-shard checkpoint interface: every accepted batch
// persists its shard offset (alongside the pre-cycle state) before the
// shard stream's own checkpoint advances.
type storeOffsets struct{ m *Maintainer }

func (o storeOffsets) Offset(shardID string) int64 { return o.m.offsets[shardID] }

func (o storeOffsets) Commit(shardID string, next int64) error {
	o.m.offsets[shardID] = next
	return o.m.store.Save(o.m.checkpoint())
}

// Refresh runs one maintenance cycle and returns its stats. The first
// call on an empty store is the initial build: MinSeq 0 reads the full
// base tables through the same path.
func (m *Maintainer) Refresh(ctx context.Context) (*RefreshStats, error) {
	stats := &RefreshStats{}
	dirty := map[string]bool{}
	var ts truetime.Timestamp
	m.offsets = map[string]int64{}
	for _, side := range m.sides {
		res, err := dataflow.ReadTableRows(ctx, m.c, side.table, dataflow.SourceOptions{
			Shards:     m.shards,
			SnapshotTS: ts, // 0 on the first table: the resolved snapshot pins the rest
			MinSeq:     m.appliedSeq[side.table],
			Checkpoint: storeOffsets{m},
		})
		if err != nil {
			return nil, err
		}
		if ts == 0 {
			ts = res.SnapshotTS
		}
		stats.Events += int64(len(res.Rows))
		for _, ev := range res.Rows {
			if err := m.applyEvent(side, ev.Row, dirty); err != nil {
				return nil, err
			}
			if ev.Seq > m.appliedSeq[side.table] {
				m.appliedSeq[side.table] = ev.Seq
			}
		}
	}
	stats.GroupsChanged = len(dirty)

	keys := make([]string, 0, len(dirty))
	for key := range dirty {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []schema.Row
	for _, key := range keys {
		g := m.groups[key]
		if g == nil {
			continue
		}
		if g.Rows > 0 {
			out = append(out, m.def.ViewRow(g, true))
			stats.Upserts++
		} else {
			out = append(out, m.def.ViewRow(g, false))
			stats.Deletes++
			delete(m.groups, key)
		}
	}
	if len(out) > 0 {
		parts := m.SinkPartitions
		if parts <= 0 {
			parts = 2
		}
		if _, err := dataflow.WriteTableRows(ctx, m.c, m.def.View, out, dataflow.SinkOptions{
			Partitions: parts, BundleSize: 64,
		}); err != nil {
			return nil, err
		}
	}

	m.appliedTS = ts
	m.offsets = map[string]int64{}
	if err := m.store.Save(m.checkpoint()); err != nil {
		return nil, err
	}
	stats.SnapshotTS = ts
	return stats, nil
}

// applyEvent folds one change-stream row into the maintenance state
// under `_CHANGE_TYPE` semantics (§4.2.6), mirroring dml.ResolveChanges:
// UPSERT retracts every prior row with the key then inserts, DELETE
// retracts them all, and rows whose key cannot be extracted degrade to
// plain inserts — except keyless DELETEs, which retract nothing.
func (m *Maintainer) applyEvent(side *sideState, row schema.Row, dirty map[string]bool) error {
	pk, pkErr := side.sc.PrimaryKeyOf(row)
	switch row.Change {
	case schema.ChangeDelete:
		if pkErr != nil {
			return nil
		}
		for _, h := range side.byPK[pk] {
			if err := m.retractRow(side, h, dirty); err != nil {
				return err
			}
		}
		delete(side.byPK, pk)
		return nil
	case schema.ChangeUpsert:
		if pkErr == nil {
			for _, h := range side.byPK[pk] {
				if err := m.retractRow(side, h, dirty); err != nil {
					return err
				}
			}
			delete(side.byPK, pk)
			return m.insertRow(side, pk, row, dirty)
		}
		return m.insertRow(side, "", row, dirty)
	default: // INSERT appends; primary keys are unenforced for inserts
		if pkErr != nil {
			pk = ""
		}
		return m.insertRow(side, pk, row, dirty)
	}
}

// insertRow adds one live row (pk "" = keyless, never retractable) and
// applies its +1 group deltas.
func (m *Maintainer) insertRow(side *sideState, pk string, row schema.Row, dirty map[string]bool) error {
	h := m.nextHandle
	m.nextHandle++
	lr := liveRow{row: row}
	if side.keys != nil {
		lr.jk, lr.joinable = query.JoinKey(side.keys, row)
	}
	side.rows[h] = lr
	side.encCache = nil
	if pk != "" {
		side.byPK[pk] = append(side.byPK[pk], h)
	}
	if lr.joinable {
		bucket := side.byJK[lr.jk]
		if bucket == nil {
			bucket = map[int64]schema.Row{}
			side.byJK[lr.jk] = bucket
		}
		bucket[h] = row
	}
	return m.applyDelta(side, lr, +1, dirty)
}

// retractRow removes one live row by handle and applies its -1 group
// deltas. The caller owns cleaning up the byPK entry.
func (m *Maintainer) retractRow(side *sideState, h int64, dirty map[string]bool) error {
	lr, ok := side.rows[h]
	if !ok {
		return fmt.Errorf("matview: %s: retract of unknown row handle %d", m.def.View, h)
	}
	delete(side.rows, h)
	side.encCache = nil
	if lr.joinable {
		delete(side.byJK[lr.jk], h)
		if len(side.byJK[lr.jk]) == 0 {
			delete(side.byJK, lr.jk)
		}
	}
	return m.applyDelta(side, lr, -1, dirty)
}

// applyDelta propagates one base-row insertion/retraction to the
// groups. Single-table views feed the row straight through; joined
// views probe the other side's hash index (the symmetric hash join:
// ΔL⋈R and L⋈ΔR, one row at a time) and feed each joined row through.
func (m *Maintainer) applyDelta(side *sideState, lr liveRow, delta int64, dirty map[string]bool) error {
	if side.other == nil {
		return m.groupApply(lr.row, delta, dirty)
	}
	if !lr.joinable {
		return nil // NULL join keys never match
	}
	leftArity := len(m.def.LeftSchema.Fields)
	for _, orow := range side.other.byJK[lr.jk] {
		var joined schema.Row
		if side.left {
			joined = query.JoinRow(lr.row, orow, leftArity)
		} else {
			joined = query.JoinRow(orow, lr.row, leftArity)
		}
		if err := m.groupApply(joined, delta, dirty); err != nil {
			return err
		}
	}
	return nil
}

// groupApply filters one (possibly joined) row through WHERE and folds
// it into its group's retractable accumulators.
func (m *Maintainer) groupApply(row schema.Row, delta int64, dirty map[string]bool) error {
	st := m.def.Stmt
	if st.Where != nil {
		v, err := sql.Eval(st.Where, row)
		if err != nil {
			return err
		}
		if !sql.Truthy(v) {
			return nil
		}
	}
	key, err := m.def.grouping.Apply(m.groups, row, delta)
	dirty[key] = true
	return err
}

// checkpoint renders the maintainer's durable state. Live base rows are
// encoded once and cached until the next state mutation, so per-batch
// offset commits during a drain reuse the pre-cycle snapshot.
func (m *Maintainer) checkpoint() *Checkpoint {
	cp := newCheckpoint()
	cp.AppliedTS = m.appliedTS
	for t, s := range m.appliedSeq {
		cp.AppliedSeq[t] = s
	}
	for _, side := range m.sides {
		if side.encCache == nil {
			handles := make([]int64, 0, len(side.rows))
			for h := range side.rows {
				handles = append(handles, h)
			}
			sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
			rows := make([]schema.Row, len(handles))
			for i, h := range handles {
				rows[i] = side.rows[h].row
			}
			side.encCache = rowenc.EncodeRows(rows)
		}
		cp.Rows[side.table] = side.encCache
	}
	for sh, off := range m.offsets {
		cp.Offsets[sh] = off
	}
	return cp
}
