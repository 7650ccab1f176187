// The source connector is the read-side twin of the sink: it consumes a
// table through a Vortex read session (one snapshot, N resumable shard
// streams) with the same two-stage exactly-once discipline. Read-stage
// workers each own a shard; for every record batch they atomically
// (a) check the batch lands at the shard's checkpointed offset,
// (b) emit the rows downstream and (c) advance the checkpoint. A worker
// that dies between receiving a batch and committing it loses nothing:
// its successor resumes the shard at the checkpoint and the server
// replays the uncommitted suffix deterministically. A zombie that
// re-delivers an already-committed batch is rejected by the offset
// check, exactly as stale appends are rejected by the sink.

package dataflow

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/readsession"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

// SourceOptions tune the exactly-once source.
type SourceOptions struct {
	// Shards is the read-session fan-out (0 = 4).
	Shards int
	// SnapshotTS pins the snapshot (0 = now).
	SnapshotTS truetime.Timestamp
	// Where is an optional predicate pushed down to the leaf scans.
	Where string
	// Columns optionally projects the named top-level columns.
	Columns []string
	// CrashEveryBatches kills each shard's worker after every nth batch
	// is received but BEFORE it is committed (0 = never): the batch is
	// forgotten and a successor worker resumes from the checkpoint,
	// exercising re-delivery of the uncommitted suffix.
	CrashEveryBatches int
	// DuplicateDeliveries re-offers every received batch to the state
	// store this many extra times — the zombie-reader scenario. The
	// offset check must reject every duplicate.
	DuplicateDeliveries int
	// Window is the per-stream flow-control budget in bytes (0 = 1 MiB).
	Window int
	// MinSeq, when positive, reads only rows with storage sequence
	// strictly greater than it (the incremental change-stream form; see
	// readsession.Options.MinSeq).
	MinSeq int64
	// Checkpoint, when non-nil, replaces the runner's in-memory offset
	// map as the per-shard commit store: offset checks read through it
	// and accepted batches are recorded in it before the shard stream's
	// checkpoint advances. A durable implementation gives a restarted
	// worker exactly-once resume for the shards of a still-open session.
	Checkpoint SourceCheckpoint
}

// SourceCheckpoint is an externally owned per-shard offset store for
// the exactly-once source. Offsets are shard-local row positions within
// one read session (shard ids embed the session id, so entries from a
// dead session are simply never consulted again).
type SourceCheckpoint interface {
	// Offset returns the committed row offset for a shard (0 if unseen).
	Offset(shardID string) int64
	// Commit durably advances the shard's committed offset. It is
	// called only after the batch passed the offset check; an error
	// aborts the run before the batch's rows are considered delivered.
	Commit(shardID string, next int64) error
}

// SourceResult summarizes a source pipeline run.
type SourceResult struct {
	// Rows is everything delivered, ordered by storage sequence.
	Rows []rowenc.Stamped
	// SnapshotTS is the session's pinned snapshot.
	SnapshotTS truetime.Timestamp
	Shards     int
	Batches    int64
	// Crashes is how many simulated worker deaths occurred.
	Crashes int
	// Resumes is how many times a successor re-opened a shard stream.
	Resumes int64
	// DuplicatesDropped counts zombie batch deliveries rejected by the
	// state store's offset check.
	DuplicatesDropped int
}

// sourceState is the runner's per-shard checkpoint state, the read-side
// mirror of stateStore: commit is atomic across "accept this batch" and
// "advance the offset", so exactly one delivery of each batch is
// emitted downstream.
type sourceState struct {
	mu   sync.Mutex
	ckpt SourceCheckpoint // shard id -> committed row offset
	out  []rowenc.Stamped
	dups int
}

// memOffsets is the runner's own offset store, used when the caller
// brings none.
type memOffsets map[string]int64

func (m memOffsets) Offset(shardID string) int64 { return m[shardID] }

func (m memOffsets) Commit(shardID string, next int64) error {
	m[shardID] = next
	return nil
}

func newSourceState(ckpt SourceCheckpoint) *sourceState {
	if ckpt == nil {
		ckpt = memOffsets{}
	}
	return &sourceState{ckpt: ckpt}
}

// commit accepts a batch iff it lands exactly at the shard's committed
// offset; duplicates (zombie re-deliveries) and gaps are rejected. On
// acceptance the offset advances durably first, then the rows are
// emitted — an external store that fails to commit aborts the run
// before the batch counts as delivered.
func (s *sourceState) commit(shardID string, batchOffset int64, rows []rowenc.Stamped) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	want := s.ckpt.Offset(shardID)
	if batchOffset < want {
		s.dups++
		return errAlreadyProcessed
	}
	if batchOffset > want {
		return fmt.Errorf("dataflow: source shard %s: batch at offset %d, checkpoint %d (gap)", shardID, batchOffset, want)
	}
	if err := s.ckpt.Commit(shardID, batchOffset+int64(len(rows))); err != nil {
		return err
	}
	s.out = append(s.out, rows...)
	return nil
}

// ReadTableRows runs the exactly-once source: it opens a read session
// over table, drains every shard (including shards added by concurrent
// splits) through per-shard checkpointed workers, and returns the rows
// ordered by storage sequence. This is `BigQueryIO.readTableRows()` —
// the Storage Read API path of §7.4, run in reverse.
func ReadTableRows(ctx context.Context, c *client.Client, table meta.TableID, opts SourceOptions) (*SourceResult, error) {
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	sess, err := readsession.Dial(c, "").Open(ctx, table, readsession.Options{
		Shards:     opts.Shards,
		SnapshotTS: opts.SnapshotTS,
		Where:      opts.Where,
		Columns:    opts.Columns,
		Window:     opts.Window,
		MinSeq:     opts.MinSeq,
	})
	if err != nil {
		return nil, err
	}
	defer sess.Close(ctx)

	state := newSourceState(opts.Checkpoint)
	res := &SourceResult{SnapshotTS: sess.SnapshotTS()}
	var (
		mu       sync.Mutex
		firstErr error
		crashes  int
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	// Drain in waves so shards added by concurrent splits are picked up,
	// in the style of Session.ReadAll — but through the checkpointed
	// state store rather than trusting each worker's memory.
	seen := map[string]bool{}
	for {
		var wave []*readsession.Shard
		for _, sh := range sess.Shards() {
			if !seen[sh.ID()] {
				seen[sh.ID()] = true
				wave = append(wave, sh)
			}
		}
		if len(wave) == 0 {
			break
		}
		var wg sync.WaitGroup
		for _, sh := range wave {
			wg.Add(1)
			go func(sh *readsession.Shard) {
				defer wg.Done()
				batches := 0
				for {
					b, err := sh.Next(ctx)
					if err == io.EOF {
						return
					}
					if err != nil {
						fail(err)
						return
					}
					batches++
					if opts.CrashEveryBatches > 0 && batches%opts.CrashEveryBatches == 0 {
						// Worker dies holding an uncommitted batch. The
						// successor (next loop iteration) resumes the shard
						// at its checkpoint and receives the batch again.
						sh.Crash()
						mu.Lock()
						crashes++
						mu.Unlock()
						continue
					}
					// Zombie deliveries race the original to the state
					// store; the offset check admits exactly one.
					deliveries := 1 + opts.DuplicateDeliveries
					var accepted error
					for d := 0; d < deliveries; d++ {
						err := state.commit(sh.ID(), b.Offset, b.Rows())
						if d == 0 {
							accepted = err
						}
					}
					if accepted == errAlreadyProcessed {
						// A restarted worker replaying a shard whose external
						// store is ahead of the stream checkpoint: the batch
						// was delivered by a previous incarnation, so skip it
						// and advance past.
						sh.Commit()
						continue
					}
					if accepted != nil {
						fail(accepted)
						return
					}
					// The shard checkpoint advances only after the state
					// store committed: Crash() before this point replays
					// the batch, after it the batch is never re-sent.
					sh.Commit()
					mu.Lock()
					res.Batches++
					mu.Unlock()
				}
			}(sh)
		}
		wg.Wait()
	}
	if firstErr != nil {
		return nil, firstErr
	}

	st := sess.Stats()
	state.mu.Lock()
	rows := state.out
	dups := state.dups
	state.mu.Unlock()
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].Seq < rows[j].Seq })
	res.Rows = rows
	res.Shards = st.Shards
	res.Crashes = crashes
	res.Resumes = st.Resumes
	res.DuplicatesDropped = dups
	return res, nil
}

// CopyTableRows reads src through an exactly-once source session and
// writes the rows to dst through the exactly-once sink — the full §7.4
// pipeline with Vortex on both ends.
func CopyTableRows(ctx context.Context, c *client.Client, src, dst meta.TableID, srcOpts SourceOptions, dstOpts SinkOptions) (*SourceResult, *Result, error) {
	sr, err := ReadTableRows(ctx, c, src, srcOpts)
	if err != nil {
		return nil, nil, err
	}
	plain := make([]schema.Row, len(sr.Rows))
	for i, r := range sr.Rows {
		plain[i] = r.Row
	}
	wr, err := WriteTableRows(ctx, c, dst, plain, dstOpts)
	if err != nil {
		return sr, nil, err
	}
	return sr, wr, nil
}
