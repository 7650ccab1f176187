package matview

import (
	"sync"

	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

// Checkpoint is the maintainer's durable state: everything a restarted
// maintainer needs to resume exactly-once. The derived structures (join
// index, group accumulators, view-row cache) are deterministic pure
// functions of the live base rows, so only those rows are persisted;
// the maintainer rebuilds the rest on load.
type Checkpoint struct {
	// AppliedSeq is, per base table, the highest storage sequence whose
	// change event has been folded into the view. The next refresh
	// reads each table with MinSeq = AppliedSeq[table].
	AppliedSeq map[meta.TableID]int64
	// AppliedTS is the snapshot timestamp of the last committed refresh
	// cycle: the view's contents equal the defining query recomputed at
	// exactly this timestamp.
	AppliedTS truetime.Timestamp
	// Rows holds, per base table, the live contributing rows after
	// change resolution, rowenc-encoded. (Encoded because schema.Value
	// is opaque to gob; rowenc is the engine's own row serialization
	// and preserves `_CHANGE_TYPE`.)
	Rows map[meta.TableID][]byte
	// Offsets are the in-flight cycle's per-shard source offsets (shard
	// ids embed their session id, so offsets of a dead session are
	// never consulted again). Committed per batch during a refresh and
	// cleared when the cycle commits.
	Offsets map[string]int64
}

func newCheckpoint() *Checkpoint {
	return &Checkpoint{
		AppliedSeq: map[meta.TableID]int64{},
		Rows:       map[meta.TableID][]byte{},
		Offsets:    map[string]int64{},
	}
}

// clone deep-copies the checkpoint (the row payloads are immutable
// snapshots, so sharing the byte slices is safe).
func (cp *Checkpoint) clone() *Checkpoint {
	out := newCheckpoint()
	out.AppliedTS = cp.AppliedTS
	for t, s := range cp.AppliedSeq {
		out.AppliedSeq[t] = s
	}
	for t, b := range cp.Rows {
		out.Rows[t] = b
	}
	for sh, off := range cp.Offsets {
		out.Offsets[sh] = off
	}
	return out
}

func (cp *Checkpoint) decodeRows(t meta.TableID) ([]schema.Row, error) {
	b := cp.Rows[t]
	if len(b) == 0 {
		return nil, nil
	}
	return rowenc.DecodeRows(b)
}

// Store is the maintainer's durable state store. Save must be atomic:
// after a crash, Load returns either the previous checkpoint or the
// saved one, never a mixture — that atomicity is the commit point of
// the refresh protocol.
type Store interface {
	// Load returns the last saved checkpoint, or nil when none exists.
	Load() (*Checkpoint, error)
	// Save durably replaces the checkpoint.
	Save(*Checkpoint) error
}

// MemStore is an in-memory Store: state survives maintainer restarts
// (the chaos suite destroys maintainers and rebuilds them from it) but
// not process death — the embedded-region stand-in for a Spanner-backed
// store.
type MemStore struct {
	mu    sync.Mutex
	cp    *Checkpoint
	saves int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Load returns a private copy of the last saved checkpoint.
func (m *MemStore) Load() (*Checkpoint, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cp == nil {
		return nil, nil
	}
	return m.cp.clone(), nil
}

// Save atomically replaces the stored checkpoint with a private copy.
func (m *MemStore) Save(cp *Checkpoint) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cp = cp.clone()
	m.saves++
	return nil
}

// Saves reports how many commits the store has seen (tests).
func (m *MemStore) Saves() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}
