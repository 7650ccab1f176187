// Package dataflow reproduces the slice of Google Cloud Dataflow (the
// Apache Beam runner) that §7.4 describes: a parallel pipeline whose
// BigQuery sink achieves end-to-end exactly-once output through Vortex
// BUFFERED streams.
//
// The sink runs in two stages. Append-stage workers each own a key
// partition and a dedicated BUFFERED stream; they append bundles through
// the client's exactly-once writer, pinned at the state store's row
// offset, and atomically (a) mark the bundle processed, (b) write the
// flush instruction to shuffle and (c) advance the stream offset in the
// state store. Flush-stage workers consume the instructions and call
// FlushStream — idempotent and monotonic — making the rows visible.
// Zombie workers (duplicate deliveries of a bundle) are harmless: Vortex
// offset validation makes the duplicate append land nowhere, and the
// state store's atomic commit admits exactly one completion per bundle.
package dataflow

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/schema"
)

// Bundle is one unit of work: a batch of rows for one key partition.
type Bundle struct {
	Partition int
	ID        int // sequence within the partition
	Rows      []schema.Row
}

// flushRec is a flush instruction written to shuffle by the append stage.
type flushRec struct {
	stream meta.StreamID
	offset int64
}

// stateStore is the runner's per-partition checkpoint state. Its Commit
// is atomic: Dataflow "guarantees that these three modifications are
// committed atomically" (§7.4).
type stateStore struct {
	mu    sync.Mutex
	parts []partState
}

type partState struct {
	processed  map[int]bool
	stream     meta.StreamID
	nextOffset int64
}

// get reads what one delivery of bundle id needs of its partition.
func (s *stateStore) get(part, id int) (done bool, stream meta.StreamID, next int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := &s.parts[part]
	return ps.processed[id], ps.stream, ps.nextOffset
}

// reopen replaces the partition's stream with a fresh one when it is
// still old, the stream a delivery found finalized; a twin that finds
// it already replaced simply retries on the new one.
func (s *stateStore) reopen(ctx context.Context, c *client.Client, table meta.TableID, part int, old meta.StreamID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := &s.parts[part]
	if ps.stream != old {
		return nil
	}
	st, err := c.CreateStream(ctx, table, meta.Buffered)
	if err != nil {
		return err
	}
	ps.stream, ps.nextOffset = st.Info().ID, 0
	return nil
}

// errAlreadyProcessed is returned when a zombie tries to commit a bundle
// a twin already completed.
var errAlreadyProcessed = errors.New("dataflow: bundle already processed")

// commit atomically marks the bundle processed, records the flush
// instruction and advances the offset of the stream the bundle went to
// (a stream replaced since keeps its successor's offset). It fails for
// zombies.
func (s *stateStore) commit(part, bundleID int, rec flushRec, shuffle chan<- flushRec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := &s.parts[part]
	if ps.processed[bundleID] {
		return errAlreadyProcessed
	}
	ps.processed[bundleID] = true
	if rec.stream == ps.stream && rec.offset > ps.nextOffset {
		ps.nextOffset = rec.offset
	}
	shuffle <- rec
	return nil
}

// SinkOptions tune the exactly-once sink.
type SinkOptions struct {
	// Partitions is the key-space partition count (append-stage width).
	Partitions int
	// BundleSize is the number of rows per bundle.
	BundleSize int
	// DuplicateDeliveries re-delivers every bundle this many extra times
	// concurrently — the zombie-worker scenario of §7.4.
	DuplicateDeliveries int
	// CrashAfterAppend makes the FIRST delivery of every nth bundle die
	// between its append and its state commit (0 = never), exercising
	// re-delivery over a partially-completed bundle.
	CrashAfterAppend int
	// Streams are partition streams an earlier run returned
	// (Result.Streams), continued rather than replaced: Streams[p] is
	// partition p's. A partition with no entry opens a fresh BUFFERED
	// stream when it has rows. The caller vouches that no rows lie past
	// an entry's Next — a run that failed may have left some there.
	Streams []SinkStream
}

// SinkStream is one partition's dedicated BUFFERED stream and the offset
// its next append is pinned at.
type SinkStream struct {
	ID   meta.StreamID
	Next int64
}

// Result summarizes a pipeline run.
type Result struct {
	BundlesProcessed int
	ZombiesDefeated  int // commits rejected or appends refused for duplicates
	RowsWritten      int64
	// Streams are the partitions' streams after the run, each with the
	// offset past its last row: what a caller records to continue them
	// (SinkOptions.Streams). A partition that never had rows has none.
	Streams []SinkStream
}

// WriteTableRows runs the two-stage exactly-once sink: it partitions
// rows by a deterministic key hash, processes bundles in parallel (with
// optional duplicate deliveries and crashes), flushes, and returns.
// This is `BigQueryIO.writeTableRows()` (§7.4, Listing 7).
func WriteTableRows(ctx context.Context, c *client.Client, table meta.TableID, rows []schema.Row, opts SinkOptions) (*Result, error) {
	if opts.Partitions <= 0 {
		opts.Partitions = 4
	}
	if opts.BundleSize <= 0 {
		opts.BundleSize = 16
	}
	sc, err := c.GetSchema(ctx, table)
	if err != nil {
		return nil, err
	}

	// Deterministic partitioning of the key space.
	partRows := make([][]schema.Row, opts.Partitions)
	for i, r := range rows {
		h := fnv.New32a()
		if pk, err := sc.PrimaryKeyOf(r); err == nil {
			h.Write([]byte(pk))
		} else {
			fmt.Fprintf(h, "row-%d", i)
		}
		p := int(h.Sum32()) % opts.Partitions
		partRows[p] = append(partRows[p], r)
	}
	byPart := make([][]Bundle, opts.Partitions)
	nBundles := 0
	for p, rs := range partRows {
		for lo := 0; lo < len(rs); lo += opts.BundleSize {
			hi := min(lo+opts.BundleSize, len(rs))
			byPart[p] = append(byPart[p], Bundle{Partition: p, ID: len(byPart[p]), Rows: rs[lo:hi]})
			nBundles++
		}
	}

	// One dedicated BUFFERED stream per partition (§7.4: "Each worker in
	// the Append stage creates its own dedicated BUFFERED stream"): the
	// one the caller carries over, or a fresh one. Each delivery attaches
	// its own handle — worker incarnations (including zombies) do not
	// share client state.
	store := &stateStore{parts: make([]partState, opts.Partitions)}
	for p := range store.parts {
		var ss SinkStream
		if p < len(opts.Streams) {
			ss = opts.Streams[p]
		}
		if ss.ID == "" && len(partRows[p]) > 0 {
			st, err := c.CreateStream(ctx, table, meta.Buffered)
			if err != nil {
				return nil, err
			}
			ss.ID = st.Info().ID
		}
		store.parts[p] = partState{processed: map[int]bool{}, stream: ss.ID, nextOffset: ss.Next}
	}
	shuffle := make(chan flushRec, nBundles*(opts.DuplicateDeliveries+2))
	res := &Result{}

	// Append stage: bundles of a partition run in order; different
	// partitions run concurrently. Duplicate deliveries of the same
	// bundle run concurrently with the original.
	var mu sync.Mutex
	var firstErr error
	settled := func(b Bundle, err error) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err == nil:
			res.BundlesProcessed++
			res.RowsWritten += int64(len(b.Rows))
		case errors.Is(err, errAlreadyProcessed):
			res.ZombiesDefeated++
		case errors.Is(err, errDied):
			// crashed worker: re-delivered below
		case firstErr == nil:
			firstErr = err
		}
	}
	var wg sync.WaitGroup
	for _, bs := range byPart {
		wg.Add(1)
		go func(bs []Bundle) {
			defer wg.Done()
			for bi, b := range bs {
				crash := opts.CrashAfterAppend > 0 && (bi+1)%opts.CrashAfterAppend == 0
				var dwg sync.WaitGroup
				for d := 0; d < 1+opts.DuplicateDeliveries; d++ {
					dwg.Add(1)
					go func(dieBeforeCommit bool) {
						defer dwg.Done()
						settled(b, processBundle(ctx, c, table, store, shuffle, b, dieBeforeCommit))
					}(crash && d == 0)
				}
				dwg.Wait()
				if crash {
					// Runner re-delivers the bundle after the crash.
					settled(b, processBundle(ctx, c, table, store, shuffle, b, false))
				}
			}
		}(bs)
	}
	wg.Wait()
	close(shuffle)
	if firstErr != nil {
		return nil, firstErr
	}

	// Flush stage: consume instructions; FlushStream is idempotent and
	// the frontier monotonic, so order does not matter.
	for rec := range shuffle {
		s, err := c.AttachStream(ctx, rec.stream)
		if err != nil {
			return nil, fmt.Errorf("dataflow: flush stage: %w", err)
		}
		if err := s.Flush(ctx, rec.offset); err != nil {
			return nil, fmt.Errorf("dataflow: flush stage: %w", err)
		}
	}
	for _, ps := range store.parts {
		res.Streams = append(res.Streams, SinkStream{ID: ps.stream, Next: ps.nextOffset})
	}
	return res, nil
}

var errDied = errors.New("dataflow: worker died before commit")

// processBundle is one delivery of one bundle through the Append stage:
// a writer on the partition's stream, pinned at the state store's next
// offset. Partitioning and bundle order are deterministic, so a stream
// already past that offset holds this very bundle — a twin wrote it, or
// an earlier delivery whose ack was lost — and the writer's Landed
// outcome commits it like an ack. A batch in doubt is retried at its
// offset a fixed number of times (Writer.Write) before its error fails
// the run; a finalized stream is replaced and the bundle goes to the
// new one.
func processBundle(ctx context.Context, c *client.Client, table meta.TableID, store *stateStore, shuffle chan<- flushRec, b Bundle, dieBeforeCommit bool) error {
	for {
		done, id, next := store.get(b.Partition, b.ID)
		if done {
			return errAlreadyProcessed
		}
		s, err := c.AttachStream(ctx, id)
		if err != nil {
			return err
		}
		w := client.NewWriter(c, table)
		w.Attach(s, next)
		switch o, err := w.Write(ctx, b.Rows); o {
		case client.Reopen:
			if err := store.reopen(ctx, c, table, b.Partition, id); err != nil {
				return err
			}
			continue
		case client.InDoubt:
			return err
		}
		if dieBeforeCommit {
			return errDied
		}
		return store.commit(b.Partition, b.ID, flushRec{stream: id, offset: w.Next()}, shuffle)
	}
}
