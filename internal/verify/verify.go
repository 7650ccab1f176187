// Package verify implements the continuous data-verification pipelines
// of §6.3. Vortex "continuously traces requests to detect data
// correctness issues such as missing or duplicated records": every
// successful client call is recorded in a ledger, and verification
// passes check that
//
//   - every acknowledged append's rows exist at their expected location
//     exactly once (each append occupies a unique storage-sequence
//     range, the reproduction's analog of Stream + row_offset);
//   - no record is missing and none is duplicated, across WOS→ROS
//     conversion and reclustering (each record "converted exactly once");
//   - the stored content is byte-identical to what was acknowledged.
package verify

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
)

// AppendRecord is one acknowledged append in the ledger.
//
// FirstSeq < 0 marks an *uncertain ack*: the client learned the append
// landed (e.g. a retry at a pinned offset returned WRONG_OFFSET after an
// earlier attempt's response was lost) but never saw the assigned
// timestamps. Verification resolves such records by content: it searches
// the snapshot for an unaccounted run of RowCount consecutive sequences
// whose hashes match RowHashes.
type AppendRecord struct {
	Table     meta.TableID
	Stream    meta.StreamID
	Offset    int64 // stream row offset of the first row
	RowCount  int64
	FirstSeq  int64 // storage sequence of the first row (TrueTime-derived)
	RowHashes []uint32
}

// Ledger records acknowledged writes for later verification. It is safe
// for concurrent use.
type Ledger struct {
	mu      sync.Mutex
	appends []AppendRecord
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Record adds one acknowledged append.
func (l *Ledger) Record(rec AppendRecord) {
	l.mu.Lock()
	l.appends = append(l.appends, rec)
	l.mu.Unlock()
}

// Appends returns a snapshot of the recorded appends.
func (l *Ledger) Appends() []AppendRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AppendRecord(nil), l.appends...)
}

// NewAppendRecord is the ledger record of rows acknowledged at stream
// offset off, each fingerprinted the way the verifier compares stored
// rows. A negative firstSeq records an uncertain ack.
func NewAppendRecord(table meta.TableID, stream meta.StreamID, off int64, rows []schema.Row, firstSeq int64) AppendRecord {
	hashes := make([]uint32, len(rows))
	for i, r := range rows {
		hashes[i] = rowHash(r)
	}
	return AppendRecord{Table: table, Stream: stream, Offset: off, RowCount: int64(len(rows)), FirstSeq: firstSeq, RowHashes: hashes}
}

// rowHash fingerprints a row's content.
func rowHash(r schema.Row) uint32 {
	return blockenc.Checksum(rowenc.AppendRow(nil, r))
}

// Applied returns an Applied callback for w that records every batch w
// knows durable — the request tracing of §6.3. An acknowledged batch
// carries the storage sequence of its first row; one that landed while
// its ack was lost is an uncertain ack, resolved by content.
func (l *Ledger) Applied(w *client.Writer) func(rows []schema.Row, off, seq int64) {
	return func(rows []schema.Row, off, seq int64) {
		l.Record(NewAppendRecord(w.Table(), w.Stream().Info().ID, off, rows, seq))
	}
}

// Report is the outcome of one verification pass.
type Report struct {
	AppendsChecked int
	RowsChecked    int64
	// Missing lists acked appends whose rows (by sequence) are absent.
	Missing []AppendRecord
	// DuplicateSeqs are storage sequences observed more than once —
	// "each record is reported as converted exactly once" (§6.3).
	DuplicateSeqs []int64
	// ContentMismatches are sequences whose stored content differs from
	// the acknowledged content.
	ContentMismatches []int64
	// OverlappingAppends are ledger pairs claiming the same location —
	// "each append in the system reports a unique location".
	OverlappingAppends int
	// PhantomRows are stored rows no acked append accounts for.
	PhantomRows int64
	// ResolvedUncertain counts uncertain-ack appends (FirstSeq < 0) that
	// were matched to stored rows by content.
	ResolvedUncertain int
}

// OK reports whether the pass found no violations.
func (r *Report) OK() bool {
	return len(r.Missing) == 0 && len(r.DuplicateSeqs) == 0 &&
		len(r.ContentMismatches) == 0 && r.OverlappingAppends == 0 && r.PhantomRows == 0
}

// String renders a one-line summary.
func (r *Report) String() string {
	return fmt.Sprintf("appends=%d rows=%d missing=%d dup=%d mismatch=%d overlap=%d phantom=%d ok=%v",
		r.AppendsChecked, r.RowsChecked, len(r.Missing), len(r.DuplicateSeqs),
		len(r.ContentMismatches), r.OverlappingAppends, r.PhantomRows, r.OK())
}

// VerifyTable runs one verification pass over a table snapshot against
// the ledger. The table must not have been mutated by DML or replacing
// change types (those legitimately remove rows); the production system
// runs the equivalent pipelines as SQL over its own trace tables.
func VerifyTable(ctx context.Context, c *client.Client, table meta.TableID, ledger *Ledger, at truetime.Timestamp) (*Report, error) {
	rows, _, err := c.ReadAll(ctx, table, at)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	stored := make(map[int64]uint32, len(rows))
	for _, r := range rows {
		if _, dup := stored[r.Seq]; dup {
			rep.DuplicateSeqs = append(rep.DuplicateSeqs, r.Seq)
			continue
		}
		stored[r.Seq] = rowHash(r.Row)
	}

	// Unique-location check: per stream, acked [offset, offset+count)
	// ranges must not overlap.
	type span struct{ lo, hi int64 }
	byStream := map[meta.StreamID][]span{}
	accounted := make(map[int64]bool, len(rows))
	var uncertain []AppendRecord
	for _, rec := range ledger.Appends() {
		if rec.Table != table {
			continue
		}
		rep.AppendsChecked++
		rep.RowsChecked += rec.RowCount
		byStream[rec.Stream] = append(byStream[rec.Stream], span{rec.Offset, rec.Offset + rec.RowCount})

		if rec.FirstSeq < 0 {
			// Uncertain ack: resolve by content once every certain
			// append has claimed its sequences.
			uncertain = append(uncertain, rec)
			continue
		}
		missing := false
		for i := int64(0); i < rec.RowCount; i++ {
			seq := rec.FirstSeq + i
			h, ok := stored[seq]
			if !ok {
				missing = true
				continue
			}
			accounted[seq] = true
			if h != rec.RowHashes[i] {
				rep.ContentMismatches = append(rep.ContentMismatches, seq)
			}
		}
		if missing {
			rep.Missing = append(rep.Missing, rec)
		}
	}
	if len(uncertain) > 0 {
		// Stored sequences in order; a batch's rows occupy consecutive
		// sequences (assignTS reserves the whole range), so an uncertain
		// append resolves to an unaccounted consecutive run with matching
		// hashes. Greedy first-match keeps the pass deterministic.
		seqs := make([]int64, 0, len(stored))
		for s := range stored {
			seqs = append(seqs, s)
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for _, rec := range uncertain {
			if !resolveUncertain(rec, seqs, stored, accounted) {
				rep.Missing = append(rep.Missing, rec)
				continue
			}
			rep.ResolvedUncertain++
		}
	}
	for _, spans := range byStream {
		sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				rep.OverlappingAppends++
			}
		}
	}
	for seq := range stored {
		if !accounted[seq] {
			rep.PhantomRows++
		}
	}
	sort.Slice(rep.DuplicateSeqs, func(i, j int) bool { return rep.DuplicateSeqs[i] < rep.DuplicateSeqs[j] })
	return rep, nil
}

// resolveUncertain claims the first unaccounted run of consecutive
// stored sequences whose hashes match rec.RowHashes, marking it
// accounted. It reports whether a run was found.
func resolveUncertain(rec AppendRecord, seqs []int64, stored map[int64]uint32, accounted map[int64]bool) bool {
	n := int(rec.RowCount)
	if n == 0 {
		return true
	}
outer:
	for i := 0; i+n <= len(seqs); i++ {
		base := seqs[i]
		for k := 0; k < n; k++ {
			seq := base + int64(k)
			if i+k >= len(seqs) || seqs[i+k] != seq || accounted[seq] || stored[seq] != rec.RowHashes[k] {
				continue outer
			}
		}
		for k := 0; k < n; k++ {
			accounted[base+int64(k)] = true
		}
		return true
	}
	return false
}

// SnapshotDigest reads table at the snapshot and returns an order- and
// replica-independent digest of its visible rows plus the row count. Two
// reads of the same snapshot must digest identically — the simulation's
// snapshot-read monotonicity invariant — and the digest feeds the
// WOS∪ROS union-completeness check across conversion boundaries.
func SnapshotDigest(ctx context.Context, c *client.Client, table meta.TableID, at truetime.Timestamp) (uint64, int, error) {
	rows, _, err := c.ReadAll(ctx, table, at)
	if err != nil {
		return 0, 0, err
	}
	return DigestStamped(rows), len(rows), nil
}

// DigestStamped digests stamped rows in storage-sequence order,
// independent of input order. Rows delivered through any read path
// (direct scan, query, read session) of the same snapshot must digest
// identically.
func DigestStamped(rows []rowenc.Stamped) uint64 {
	sorted := append([]rowenc.Stamped(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Seq < sorted[j].Seq })
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, r := range sorted {
		mix(uint64(r.Seq))
		mix(uint64(rowHash(r.Row)))
	}
	return h
}
