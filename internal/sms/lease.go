package sms

import (
	"context"
	"encoding/json"
	"fmt"

	"vortex/internal/meta"
	"vortex/internal/spanner"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// Snapshot leases pin a table snapshot against physical garbage
// collection: while an unexpired lease exists, neither the groomer
// (handleGC) nor heartbeat GC may delete a fragment that is still
// visible at the lease's snapshot timestamp. Read sessions hold one
// lease each for their lifetime, renewing it while shards are served.
//
// Leases live in Spanner — like all SMS state they survive task crashes
// (§5.2), so a session keeps its GC protection across an SMS failover.

// leaseRecord is the durable form of one snapshot lease. Acquired is a
// commit-ordered stamp taken at acquisition: any fragment deletion
// committed after the lease began has DeletionTS > Acquired (commit
// timestamps are strictly monotonic), which is how deletions that land
// "before" the snapshot's uncertainty bound are still caught.
type leaseRecord struct {
	SnapshotTS truetime.Timestamp
	Acquired   truetime.Timestamp
	Expires    truetime.Timestamp
}

func leaseKey(t meta.TableID, id string) string {
	return fmt.Sprintf("leases/%s/%s", t, id)
}
func leasePrefix(t meta.TableID) string { return fmt.Sprintf("leases/%s/", t) }

// defaultLeaseTTL bounds how long a dead session can block GC when the
// holder never releases: expiry is enforced on every GC decision.
const defaultLeaseTTL = truetime.Timestamp(30e9) // 30s in clock units

func (t *Task) handleAcquireLease(_ context.Context, r *wire.AcquireLeaseRequest) (*wire.AcquireLeaseResponse, error) {
	ttl := r.TTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	snap := r.SnapshotTS
	if snap == 0 {
		snap = t.clock.Now().Latest
	}
	id := meta.RandomHex(8)
	rec := leaseRecord{SnapshotTS: snap, Acquired: t.clock.Commit(), Expires: t.clock.Now().Latest + ttl}
	raw, _ := json.Marshal(rec)
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		if _, ok := tx.Get(tableKey(r.Table)); !ok {
			return fmt.Errorf("%w: table %s", ErrNotFound, r.Table)
		}
		tx.Put(leaseKey(r.Table, id), raw)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.AcquireLeaseResponse{LeaseID: id, SnapshotTS: snap, Expires: rec.Expires}, nil
}

func (t *Task) handleRenewLease(_ context.Context, r *wire.RenewLeaseRequest) (*wire.RenewLeaseResponse, error) {
	ttl := r.TTL
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	var expires truetime.Timestamp
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		raw, ok := tx.Get(leaseKey(r.Table, r.LeaseID))
		if !ok {
			return fmt.Errorf("%s: lease %s/%s", wire.ErrCodeLeaseExpired, r.Table, r.LeaseID)
		}
		var rec leaseRecord
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		if t.clock.After(rec.Expires) {
			// The lease lapsed; GC may already have collected under it, so
			// renewal must fail rather than silently resurrect protection.
			tx.Delete(leaseKey(r.Table, r.LeaseID))
			return fmt.Errorf("%s: lease %s/%s", wire.ErrCodeLeaseExpired, r.Table, r.LeaseID)
		}
		rec.Expires = t.clock.Now().Latest + ttl
		out, _ := json.Marshal(rec)
		tx.Put(leaseKey(r.Table, r.LeaseID), out)
		expires = rec.Expires
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.RenewLeaseResponse{Expires: expires}, nil
}

func (t *Task) handleReleaseLease(_ context.Context, r *wire.ReleaseLeaseRequest) (*wire.ReleaseLeaseResponse, error) {
	_, err := t.db.ReadWriteTxn(func(tx *spanner.Txn) error {
		tx.Delete(leaseKey(r.Table, r.LeaseID))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &wire.ReleaseLeaseResponse{}, nil
}

// pinnedLeases returns table's unexpired leases, for use inside a GC
// decision transaction. Expired leases are ignored (and left for
// release/renewal to clean up — GC paths must not widen their write
// sets).
func (t *Task) pinnedLeases(tx *spanner.Txn, table meta.TableID) []leaseRecord {
	var pins []leaseRecord
	for _, kv := range tx.Scan(leasePrefix(table)) {
		var rec leaseRecord
		if err := json.Unmarshal(kv.Value, &rec); err != nil {
			continue
		}
		if t.clock.After(rec.Expires) {
			continue
		}
		pins = append(pins, rec)
	}
	return pins
}

// leasePinned reports whether fragment f (already known to have
// DeletionTS != 0) may still be referenced by the scan plan of a
// session holding one of the leases: either it is visible at the
// lease's snapshot, or it was deleted after the lease was acquired —
// the session planned before that deletion, so its frozen plan may
// name the fragment even though a fresh plan at the same snapshot
// would not. Such a fragment must survive physical GC until the lease
// expires or is released, or an open read session would scan files
// that are gone.
func leasePinned(f *meta.FragmentInfo, pins []leaseRecord) bool {
	for _, rec := range pins {
		if f.VisibleAt(rec.SnapshotTS) || f.DeletionTS >= rec.Acquired {
			return true
		}
	}
	return false
}
