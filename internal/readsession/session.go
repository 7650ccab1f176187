package readsession

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/query"
	"vortex/internal/rowenc"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// defaultWindow is the per-stream response flow-control window: a slow
// reader holds at most this many encoded batch bytes in flight.
const defaultWindow = 1 << 20

// Conn is a client-side handle to the read-session service.
type Conn struct {
	c    *client.Client
	net  rpc.Transport
	addr string
}

// Dial binds a consumer connection over an existing storage client's
// network. addr "" means DefaultAddr.
func Dial(c *client.Client, addr string) *Conn {
	if addr == "" {
		addr = DefaultAddr
	}
	return &Conn{c: c, net: c.Network(), addr: addr}
}

// Options configures a read session.
type Options struct {
	// Shards is the maximum shard count (0 = 1).
	Shards int
	// SnapshotTS pins the snapshot (0 = now, resolved by the server).
	SnapshotTS truetime.Timestamp
	// Where is an optional predicate pushed down to the leaf scans.
	Where string
	// Columns optionally projects the named top-level columns.
	Columns []string
	// Window is the per-stream response flow-control budget in bytes
	// (0 = 1 MiB). Smaller windows keep the server closer to the
	// reader's actual position, which makes splits move more work.
	Window int
	// MinSeq, when positive, restricts the session to rows with storage
	// sequence strictly greater than it. An incremental consumer that
	// has applied everything up to sequence S opens its next session
	// with MinSeq=S and reads only the delta — the server still plans
	// all assignments (sequences interleave across fragments) but
	// filters before serving, so old rows never cross the wire.
	MinSeq int64
}

// Stats are per-session consumption deltas. The embedded
// query.ExecStats is the same leaf-scan accounting the query engine
// reports: readsession serving populates SnapshotTS, the assignment
// pruning counters, and the vectorized disposition counters
// (RowsCodeSkipped / RowsDecoded / RowsScanned).
type Stats struct {
	Shards  int
	Splits  int64
	Resumes int64
	Batches int64
	Rows    int64
	Bytes   int64
	query.ExecStats
}

// Session is an open read session: a pinned snapshot fanned out into
// independently consumable shard streams.
type Session struct {
	conn   *Conn
	id     string
	table  meta.TableID
	snapTS truetime.Timestamp
	schema *schema.Schema
	window int

	mu     sync.Mutex
	shards []*Shard
	stats  Stats
	closed bool
}

// Batch is one decoded record batch delivered to a shard reader. The
// columnar frame is the native form; Rows is a row adapter over the
// same data, materialized lazily on first call.
type Batch struct {
	// Offset is the shard-local position of the batch's first row.
	Offset int64
	// Rec holds the frame's data columns only — the projected fields,
	// found by name — materialized. The reserved identity columns
	// (__seq, __arity, __change) are kept as integers beside it.
	Rec *wire.RecordBatch

	seqs, arity, changes []int64 // per row: storage sequence, value arity, change type
	sc                   *schema.Schema
	rows                 []rowenc.Stamped
}

// NumRows returns the batch's row count without materializing rows.
func (b *Batch) NumRows() int { return b.Rec.NumRows }

// Rows reassembles the stamped rows from the columnar frame. The
// result is cached; batch-native consumers that stick to Rec never pay
// for it.
func (b *Batch) Rows() []rowenc.Stamped {
	if b.rows == nil && b.Rec.NumRows > 0 {
		b.rows = stampedFromBatch(b)
	}
	return b.rows
}

// Shard is one resumable stream of a session. It is not safe for
// concurrent use; each reader owns one shard.
type Shard struct {
	sess *Session
	id   string
	// PlannedRows is the server's row estimate at planning/split time.
	PlannedRows int64

	stream     rpc.ClientStream
	pos        int64 // volatile position: rows consumed via Next
	checkpoint int64 // last committed position; Crash rewinds here
	done       bool
}

// Open starts a read session over table.
func (cn *Conn) Open(ctx context.Context, table meta.TableID, opts Options) (*Session, error) {
	r, err := wire.OpenReadSession.Call(ctx, cn.net, cn.addr, &wire.OpenReadSessionRequest{
		Table:      table,
		SnapshotTS: opts.SnapshotTS,
		MaxShards:  opts.Shards,
		Where:      opts.Where,
		Columns:    opts.Columns,
		MinSeq:     opts.MinSeq,
	})
	if err != nil {
		return nil, err
	}
	window := opts.Window
	if window <= 0 {
		window = defaultWindow
	}
	s := &Session{
		conn:   cn,
		id:     r.SessionID,
		table:  table,
		snapTS: r.SnapshotTS,
		schema: r.Schema,
		window: window,
	}
	s.stats.AssignmentsTotal = r.AssignmentsTotal
	s.stats.AssignmentsPruned = r.AssignmentsPrune
	s.stats.SnapshotTS = r.SnapshotTS
	for _, si := range r.Shards {
		s.shards = append(s.shards, &Shard{sess: s, id: si.ID, PlannedRows: si.PlannedRows})
	}
	s.stats.Shards = len(s.shards)
	return s, nil
}

// SnapshotTS returns the pinned snapshot timestamp.
func (s *Session) SnapshotTS() truetime.Timestamp { return s.snapTS }

// Schema returns the table schema at the snapshot.
func (s *Session) Schema() *schema.Schema { return s.schema }

// Shards returns the session's current shard handles.
func (s *Session) Shards() []*Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Shard(nil), s.shards...)
}

// Stats returns the session's consumption deltas so far.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Split asks the server to split sh's unserved tail into a new shard
// (liquid sharding: a straggler hands work to an idle reader). Returns
// the new shard, or nil when the shard had no splittable remainder.
func (s *Session) Split(ctx context.Context, sh *Shard) (*Shard, error) {
	r, err := wire.SplitShard.Call(ctx, s.conn.net, s.conn.addr, &wire.SplitShardRequest{
		SessionID: s.id, ShardID: sh.id,
	})
	if err != nil {
		return nil, err
	}
	if !r.OK {
		return nil, nil
	}
	ns := &Shard{sess: s, id: r.NewShard.ID, PlannedRows: r.NewShard.PlannedRows}
	s.mu.Lock()
	s.shards = append(s.shards, ns)
	s.stats.Shards = len(s.shards)
	s.stats.Splits++
	s.mu.Unlock()
	s.conn.c.ObserveReadSession(0, 0, 1, 0)
	return ns, nil
}

// Close ends the session, releasing its snapshot lease so GC may
// proceed. Open shard streams are torn down.
func (s *Session) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	shards := append([]*Shard(nil), s.shards...)
	s.mu.Unlock()
	for _, sh := range shards {
		sh.closeStream()
	}
	_, err := wire.CloseReadSession.Call(ctx, s.conn.net, s.conn.addr, &wire.CloseReadSessionRequest{SessionID: s.id})
	return err
}

// ID returns the server-assigned shard id.
func (sh *Shard) ID() string { return sh.id }

// Checkpoint returns the shard's last committed offset.
func (sh *Shard) Checkpoint() int64 { return sh.checkpoint }

// Pos returns the shard's volatile position (rows consumed via Next).
func (sh *Shard) Pos() int64 { return sh.pos }

func (sh *Shard) closeStream() {
	if sh.stream != nil {
		sh.stream.Close()
		sh.stream = nil
	}
}

// ensureStream opens (or reopens) the shard's ReadRows stream at the
// current volatile position. Reopening at a non-zero offset is a
// checkpoint resume and is counted as such.
func (sh *Shard) ensureStream(ctx context.Context, resumed bool) error {
	if sh.stream != nil {
		return nil
	}
	cs, err := sh.sess.conn.net.OpenStream(ctx, sh.sess.conn.addr, wire.ReadRows.Name(), sh.sess.window)
	if err != nil {
		return err
	}
	if err := cs.Send(&wire.ReadRowsRequest{SessionID: sh.sess.id, ShardID: sh.id, Offset: sh.pos}); err != nil {
		cs.Close()
		return err
	}
	cs.CloseSend()
	sh.stream = cs
	if resumed {
		sh.sess.mu.Lock()
		sh.sess.stats.Resumes++
		sh.sess.mu.Unlock()
		sh.sess.conn.c.ObserveReadSession(0, 0, 0, 1)
	}
	return nil
}

// Next returns the shard's next record batch, opening or resuming the
// underlying stream as needed. It returns io.EOF once the shard is
// fully consumed. On a stream error the caller may simply call Next
// again: the stream reopens at the volatile position, so no rows are
// lost or repeated.
func (sh *Shard) Next(ctx context.Context) (*Batch, error) {
	if sh.done {
		return nil, io.EOF
	}
	for {
		if err := sh.ensureStream(ctx, sh.pos > 0); err != nil {
			return nil, err
		}
		resp, err := wire.ReadRows.Response(sh.stream)
		if err != nil {
			// Stream died (RPC fault, server restart): surface the error;
			// the next call re-opens from the volatile position.
			sh.closeStream()
			if err == io.EOF {
				// Handler returned without Done — treat as stream loss.
				err = rpc.ErrClosed
			}
			return nil, err
		}
		if resp.Error != "" {
			sh.closeStream()
			return nil, fmt.Errorf("readsession: shard %s: %s", sh.id, resp.Error)
		}
		if resp.Done {
			sh.done = true
			sh.closeStream()
			return nil, io.EOF
		}
		if resp.Offset != sh.pos {
			// The server replays deterministically from the requested
			// offset; any mismatch means a protocol bug, not data loss.
			sh.closeStream()
			return nil, fmt.Errorf("readsession: shard %s: offset %d, want %d", sh.id, resp.Offset, sh.pos)
		}
		b, err := decodeBatchFrame(resp.Batch, sh.sess.schema)
		if err != nil {
			sh.closeStream()
			return nil, err
		}
		rows := b.NumRows()
		if int64(rows) != resp.RowCount {
			sh.closeStream()
			return nil, fmt.Errorf("readsession: shard %s: batch rows %d, want %d", sh.id, rows, resp.RowCount)
		}
		sh.pos += int64(rows)
		sh.sess.mu.Lock()
		sh.sess.stats.Batches++
		sh.sess.stats.Rows += int64(rows)
		sh.sess.stats.Bytes += int64(len(resp.Batch))
		sh.sess.stats.RowsCodeSkipped += resp.RowsPruned
		sh.sess.stats.RowsDecoded += resp.RowsDecoded
		sh.sess.stats.RowsScanned += resp.RowsPruned + resp.RowsDecoded
		sh.sess.mu.Unlock()
		sh.sess.conn.c.ObserveReadSession(1, int64(len(resp.Batch)), 0, 0)
		b.Offset = resp.Offset
		return b, nil
	}
}

// Commit records the volatile position as the shard's checkpoint — the
// point a crashed reader resumes from.
func (sh *Shard) Commit() { sh.checkpoint = sh.pos }

// Crash simulates a reader failure: the stream is torn down and all
// progress past the last checkpoint is forgotten. The replacement
// (zombie-successor) reader continues from the checkpoint; because the
// server replays deterministically, it sees exactly the uncommitted
// suffix again — each row is delivered-and-committed exactly once.
func (sh *Shard) Crash() {
	sh.closeStream()
	sh.pos = sh.checkpoint
	sh.done = false
}

// ReadAll drains every shard of the session in parallel (including
// shards added by concurrent splits) and returns all rows ordered by
// storage sequence. Convenience for tests and the query-style path.
func (s *Session) ReadAll(ctx context.Context) ([]rowenc.Stamped, error) {
	var (
		mu   sync.Mutex
		all  []rowenc.Stamped
		errs []error
	)
	seen := make(map[string]bool)
	for {
		var batch []*Shard
		s.mu.Lock()
		for _, sh := range s.shards {
			if !seen[sh.id] {
				seen[sh.id] = true
				batch = append(batch, sh)
			}
		}
		s.mu.Unlock()
		if len(batch) == 0 {
			break
		}
		var wg sync.WaitGroup
		for _, sh := range batch {
			wg.Add(1)
			go func(sh *Shard) {
				defer wg.Done()
				for {
					b, err := sh.Next(ctx)
					if err == io.EOF {
						return
					}
					if err != nil {
						mu.Lock()
						errs = append(errs, err)
						mu.Unlock()
						return
					}
					sh.Commit()
					mu.Lock()
					all = append(all, b.Rows()...)
					mu.Unlock()
				}
			}(sh)
		}
		wg.Wait()
		// A concurrent Split may have added shards while we drained; loop
		// until no unseen shards remain.
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all, nil
}
