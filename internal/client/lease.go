package client

import (
	"context"

	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// Snapshot-lease control-plane calls, used by the read-session service
// to pin a session's snapshot against physical GC. They ride the same
// retried SMS path as other control-plane calls, so a lease survives an
// SMS failover mid-session.

// AcquireReadLease pins table at snapshotTS (0 = now) for ttl clock
// units (0 = server default), returning the lease id, the pinned
// snapshot and the expiry.
func (c *Client) AcquireReadLease(ctx context.Context, table meta.TableID, snapshotTS, ttl truetime.Timestamp) (string, truetime.Timestamp, truetime.Timestamp, error) {
	r, err := smsRetry(ctx, c, table, wire.AcquireLease, &wire.AcquireLeaseRequest{
		Table: table, SnapshotTS: snapshotTS, TTL: ttl,
	})
	if err != nil {
		return "", 0, 0, err
	}
	return r.LeaseID, r.SnapshotTS, r.Expires, nil
}

// RenewReadLease extends a lease by ttl from now.
func (c *Client) RenewReadLease(ctx context.Context, table meta.TableID, leaseID string, ttl truetime.Timestamp) (truetime.Timestamp, error) {
	resp, err := smsRetry(ctx, c, table, wire.RenewLease, &wire.RenewLeaseRequest{
		Table: table, LeaseID: leaseID, TTL: ttl,
	})
	if err != nil {
		return 0, err
	}
	return resp.Expires, nil
}

// ReleaseReadLease drops a lease. Idempotent.
func (c *Client) ReleaseReadLease(ctx context.Context, table meta.TableID, leaseID string) error {
	_, err := smsRetry(ctx, c, table, wire.ReleaseLease, &wire.ReleaseLeaseRequest{
		Table: table, LeaseID: leaseID,
	})
	return err
}

// ObserveReadSession feeds read-session consumption deltas into the
// client's metrics: batches and batch bytes delivered, splits
// triggered, checkpoint resumes performed.
func (c *Client) ObserveReadSession(batches, bytes, splits, resumes int64) {
	c.rsBatches.Add(batches)
	c.rsBytes.Add(bytes)
	c.rsSplits.Add(splits)
	c.rsResumes.Add(resumes)
}

// Network exposes the client's transport for sibling services: the
// read-session consumer opens ReadRows streams on it directly.
func (c *Client) Network() rpc.Transport { return c.net }
