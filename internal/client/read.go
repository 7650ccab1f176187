package client

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/dml"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// Assignment is one independently scannable unit of a table snapshot —
// what the Query Coordinator dispatches to Dremel shards (§7).
type Assignment struct {
	// Frag describes the fragment; for undiscovered tail files only
	// Path, Clusters, Streamlet and Format are meaningful.
	Frag meta.FragmentInfo
	// Mask is the fragment-local deletion mask (§7.3).
	Mask *dml.Mask
	// Vis is the owning stream's visibility state at the snapshot.
	Vis wire.StreamVisibility
	// StreamStart is the stream row offset of the fragment's first row.
	StreamStart int64
	// TailMask is the streamlet-tail deletion mask in stream-offset
	// coordinates (live streamlets only).
	TailMask *dml.Mask
	// Live marks fragments of writable streamlets: the reader must scan
	// the file itself and apply the commit rule (§7.1).
	Live bool
	// StreamletStart is the streamlet's start offset in the stream.
	StreamletStart int64
	// StreamletID/Stream identify the streamlet for reconciliation.
	Stream meta.StreamID
	// NextPath is the path of the streamlet's next log file, if one
	// exists: its File Map header bounds this file's committed size
	// (§7.1 disaster resilience). Empty when this is the last file.
	NextPath string
	// FragIndex is the fragment index parsed from the path (live files).
	FragIndex int
}

// ScanPlan is the set of assignments covering a table snapshot.
type ScanPlan struct {
	Table       meta.TableID
	SnapshotTS  truetime.Timestamp
	Schema      *schema.Schema
	Assignments []Assignment
	// Projection, when non-nil, names the top-level columns a scan needs.
	// A ROS scan decodes only those columns' pages; a WOS file's blocks
	// decode only those fields' columns and step over the rest by their
	// framed length. Nil means all columns.
	Projection map[string]bool
}

// Plan obtains the read view from the SMS and expands it — including
// discovering tail files the SMS has not heard about — into assignments.
func (c *Client) Plan(ctx context.Context, table meta.TableID, snapshotTS truetime.Timestamp) (*ScanPlan, error) {
	view, err := CallSMS(ctx, c.net, c.router, table, wire.ReadView, &wire.ReadViewRequest{Table: table, SnapshotTS: snapshotTS})
	if err != nil {
		return nil, err
	}
	plan := &ScanPlan{Table: table, SnapshotTS: view.SnapshotTS, Schema: view.Schema}
	for _, rf := range view.Fragments {
		plan.Assignments = append(plan.Assignments, Assignment{
			Frag:        rf.Info,
			Mask:        rf.Mask,
			Vis:         rf.Vis,
			StreamStart: rf.StreamStart,
		})
	}
	for _, rsl := range view.Streamlets {
		as, err := c.planStreamletTail(ctx, table, view.SnapshotTS, rsl)
		if err != nil {
			return nil, err
		}
		plan.Assignments = append(plan.Assignments, as...)
	}
	return plan, nil
}

// planStreamletTail lists a live streamlet's log files and produces one
// assignment per non-deleted file.
func (c *Client) planStreamletTail(ctx context.Context, table meta.TableID, ts truetime.Timestamp, rsl wire.ReadStreamlet) ([]Assignment, error) {
	prefix := fragment.Prefix(table, rsl.Info.ID)
	paths, _, err := fromReplicas(c, rsl.Info.Clusters, "list", prefix, func(b colossus.Blobs) ([]string, error) { return b.List(prefix) })
	if err != nil {
		return nil, err
	}
	deleted := make(map[meta.FragmentID]bool, len(rsl.DeletedFragments))
	for _, fid := range rsl.DeletedFragments {
		deleted[fid] = true
	}
	sort.Slice(paths, func(i, j int) bool {
		return fragment.IndexFromPath(paths[i]) < fragment.IndexFromPath(paths[j])
	})
	var out []Assignment
	for i, p := range paths {
		idx := fragment.IndexFromPath(p)
		fid := meta.FragmentIDFor(rsl.Info.ID, idx)
		if deleted[fid] {
			continue
		}
		next := ""
		if i+1 < len(paths) {
			next = paths[i+1]
		}
		out = append(out, Assignment{
			Frag: meta.FragmentInfo{
				Streamlet: rsl.Info.ID,
				Table:     table,
				Format:    meta.WOS,
				Path:      p,
				Clusters:  rsl.Info.Clusters,
			},
			Mask:           rsl.FragmentMasks[fid],
			Vis:            rsl.Vis,
			TailMask:       rsl.TailMask,
			Live:           true,
			StreamletStart: rsl.Info.StartOffset,
			Stream:         rsl.Info.Stream,
			NextPath:       next,
			FragIndex:      idx,
		})
	}
	return out, nil
}

// ReplicaAttempt is one replica's failure during a replicated Colossus
// operation.
type ReplicaAttempt struct {
	Cluster string
	Err     error
}

// ReplicatedReadError reports that no replica served a Colossus
// operation. It distinguishes clusters the region does not know
// (misconfiguration — retrying cannot help) from replicas that failed
// the operation (an outage window — retryable), and wraps every
// per-replica error so tests can assert which replica failed and why.
type ReplicatedReadError struct {
	Op       string // "read" or "list"
	Path     string
	Unknown  []string         // cluster names absent from the region
	Attempts []ReplicaAttempt // failed attempts, in the record's cluster order
}

func (e *ReplicatedReadError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "client: %s %s: no replica served", e.Op, e.Path)
	for _, a := range e.Attempts {
		fmt.Fprintf(&b, "; %s: %v", a.Cluster, a.Err)
	}
	if len(e.Unknown) > 0 {
		fmt.Fprintf(&b, "; unknown clusters %v", e.Unknown)
	}
	return b.String()
}

// Unwrap exposes the per-replica errors to errors.Is/errors.As.
func (e *ReplicatedReadError) Unwrap() []error {
	out := make([]error, 0, len(e.Attempts))
	for _, a := range e.Attempts {
		out = append(out, a.Err)
	}
	return out
}

// retryable: a replica that exists but failed may heal; an error made
// only of unknown clusters is a configuration problem no retry fixes.
func (e *ReplicatedReadError) retryable() bool { return len(e.Attempts) > 0 }

// fromReplicas calls fn on each replica of clusters, in the record's
// order, and returns the first success with the serving cluster's name.
// op ("read" or "list") and path name the operation in its error.
func fromReplicas[T any](c *Client, clusters [2]string, op, path string, fn func(colossus.Blobs) (T, error)) (T, string, error) {
	rerr := &ReplicatedReadError{Op: op, Path: path}
	for _, name := range clusters {
		if name == "" {
			continue
		}
		cl := c.region.Blob(name)
		if cl == nil {
			rerr.Unknown = append(rerr.Unknown, name)
			continue
		}
		v, err := fn(cl)
		if err == nil {
			return v, name, nil
		}
		rerr.Attempts = append(rerr.Attempts, ReplicaAttempt{Cluster: name, Err: err})
	}
	var zero T
	return zero, "", rerr
}

// readReplicated reads the first n bytes of a file (all of it for n <
// 0) from the first replica that serves it, returning the serving
// cluster's name alongside the data.
func (c *Client) readReplicated(clusters [2]string, path string, n int64) ([]byte, string, error) {
	return fromReplicas(c, clusters, "read", path, func(b colossus.Blobs) ([]byte, error) { return b.Read(path, 0, n) })
}

// PosRow is a visible row with its physical position — the provenance
// DML statements need to build deletion masks (§7.3).
type PosRow struct {
	Stamped rowenc.Stamped
	// FragID identifies the fragment for SMS-known fragments ("" for
	// undiscovered live tail files).
	FragID meta.FragmentID
	// FragLocal is the row's physical index within its fragment.
	FragLocal int64
	// StreamOffset is the row's offset within its stream (-1 for ROS).
	StreamOffset int64
	// Live marks rows read from a writable streamlet's files: deletions
	// target the streamlet tail (stream-offset coordinates).
	Live      bool
	Streamlet meta.StreamletID
	Stream    meta.StreamID
}

// Scan reads one assignment and returns its visible rows, stamped with
// their storage sequence numbers.
func (c *Client) Scan(ctx context.Context, plan *ScanPlan, a Assignment) ([]rowenc.Stamped, error) {
	b, err := c.ScanBatch(ctx, plan, a)
	if err != nil {
		return nil, err
	}
	detailed := b.PosRows()
	out := make([]rowenc.Stamped, len(detailed))
	for i, d := range detailed {
		out[i] = d.Stamped
	}
	return out, nil
}

// fragmentBytes returns the raw file bytes of an immutable (ROS or
// sealed-WOS) fragment: disk tier first, then Colossus with a disk-tier
// back-fill. Concurrent callers for the same path — demand scans and
// the prefetcher alike — coalesce into one fetch; only the caller that
// ran it gets the disk tier's verdict in use, the others share the
// bytes, not the credit.
func (c *Client) fragmentBytes(clusters [2]string, path string) (data []byte, use CacheStats, err error) {
	v, err := c.flight.Do("bytes:"+path, func() (any, error) {
		if data, ok := c.cache.diskGet(path); ok {
			use.DiskHits = 1
			return data, nil
		}
		if c.cache.Disk() != nil {
			use.DiskMisses = 1
		}
		data, _, err := c.readReplicated(clusters, path, -1)
		if err != nil {
			return nil, err
		}
		c.cache.diskPut(path, data)
		return data, nil
	})
	if err != nil {
		return nil, use, err
	}
	return v.([]byte), use, nil
}

// load returns an immutable fragment decoded into columns — a
// *ros.Reader, or a sealed WOS file's *wosColumns holding at least
// fields, the ones a WOS scan reads (nil for a ROS scan) — and how the
// cache served it. It is the one miss sequence for both formats: a
// counted RAM lookup, then a fill singleflighted per (path, version,
// fields) so N concurrent cold scans of one fragment pay one fetch and
// one decode, not N: a silent re-check, the tiered fragmentBytes fetch,
// the decode and the put. Sealed WOS files are immutable only up to
// their committed boundary, so CommittedBytes is their entry's version.
// A WOS entry that lacks one of fields is a miss, and the fill decodes
// the fields of both; a waiter shares only a fill of its own field set,
// never a narrower one.
func (c *Client) load(a Assignment, fields fieldSet) (any, CacheStats, error) {
	path, version := a.Frag.Path, int64(0)
	if a.Frag.Format == meta.WOS {
		version = a.Frag.CommittedBytes
	}
	e, use := c.cache.get(path, version, fields)
	if e != nil {
		return e.value, use, nil
	}
	if e := c.cache.peek(path, version); e != nil {
		fields = fields.union(e.held()) // widen the entry, do not narrow it
	}
	key := fmt.Sprintf("load:%s:%d", path, version)
	if fields != nil {
		key += fmt.Sprintf(":%x", []uint64(fields))
	}
	v, err := c.flight.Do(key, func() (any, error) {
		if e := c.cache.peek(path, version); e != nil && e.held().covers(fields) {
			return e.value, nil // a previous flight filled it after our miss
		}
		data, disk, err := c.fragmentBytes(a.Frag.Clusters, path)
		if err != nil {
			return nil, err
		}
		use.DiskHits, use.DiskMisses = disk.DiskHits, disk.DiskMisses
		var value any
		if a.Frag.Format == meta.ROS {
			value, err = ros.Open(data)
		} else {
			value, err = c.decodeSealedWOS(a, data, fields)
		}
		if err != nil {
			return nil, err
		}
		c.cache.put(&cacheEntry{path: path, version: version, size: int64(len(data)), value: value})
		return value, nil
	})
	return v, use, err
}

// readLiveWOS reads a writable streamlet's file and decodes the fields
// of the blocks the §7.1 commit rule admits, consulting the second
// replica or SMS reconciliation for the final append. Live files are
// still being appended to, so they always bypass the cache. It also
// returns the streamlet-local offset of the file's first row.
func (c *Client) readLiveWOS(ctx context.Context, a Assignment, fields fieldSet) (*wosColumns, int64, error) {
	data, usedCluster, err := c.readReplicated(a.Frag.Clusters, a.Frag.Path, -1)
	if err != nil {
		return nil, 0, err
	}
	scan, err := fragment.Scan(data)
	if err != nil {
		return nil, 0, err
	}
	blocks := scan.CommittedBlocks

	if bound, ok := c.fileMapBound(a); ok {
		// A successor file exists: its File Map records this file's
		// committed final size — the authoritative bound (§7.1).
		blocks = fragment.Within(scan.Blocks, bound)
	} else if scan.TailBlock != nil {
		include, err := c.decideTail(ctx, a, scan, usedCluster)
		if err != nil {
			return nil, 0, err
		}
		if include {
			blocks = append(append([]fragment.Block(nil), blocks...), *scan.TailBlock)
		}
	}

	decoded, err := c.decodeBlocks(blocks, fields)
	if err != nil {
		return nil, 0, err
	}
	// Live files carry their own streamlet-local offsets; the first data
	// block's header is authoritative.
	fragStartRow := a.Frag.StartRow
	if len(decoded.blocks) > 0 {
		fragStartRow = decoded.blocks[0].StartRow
	}
	return decoded, fragStartRow, nil
}

// decodeSealedWOS parses a sealed fragment file and decodes the fields
// of its committed data blocks. CommittedBytes, when recorded, bounds
// the result: "clients will not read past the logical finalized size"
// (§7.1).
func (c *Client) decodeSealedWOS(a Assignment, data []byte, fields fieldSet) (*wosColumns, error) {
	scan, err := fragment.Scan(data)
	if err != nil {
		return nil, err
	}
	blocks := scan.CommittedBlocks
	if a.Frag.CommittedBytes > 0 {
		blocks = fragment.Within(scan.Blocks, a.Frag.CommittedBytes)
	}
	return c.decodeBlocks(blocks, fields)
}

// wosBlock locates one data block of a WOS file in its decoded columns.
// Blocks are kept because the snapshot bound is two-level: a block whose
// timestamp is past the snapshot ends the whole fragment, a row past it
// ends only its block.
type wosBlock struct {
	Timestamp truetime.Timestamp
	StartRow  int64 // streamlet-local row offset of the block's first row
	first     int32 // physical index of the block's first row
}

// wosColumns is a WOS file decoded once into columns: one vector per
// field any of its rows carries, which for a field in fields is PLAIN,
// typed where the field's values are of one scalar kind, NULL in the
// rows too short to carry the field, and for any other field empty: its
// values were stepped over. It carries no snapshot filtering — every
// scan applies its own as a selection (selectWOS) — so a cached one
// serves every snapshot of a projection it holds.
type wosColumns struct {
	n       int
	blocks  []wosBlock
	fields  fieldSet      // the fields cols holds; nil for every field
	cols    []wire.Vector // unnamed: a scan names them by its schema
	changes []byte
	// seqs are timestamp-assigned: block TrueTime timestamp + row index
	// within the block, so a row's seq is its commit timestamp.
	seqs []int64
	// arity is each row's written value count; nil when every row has
	// len(cols) values (no schema change inside the file).
	arity []int32
}

// decodeBlocks unseals WOS data blocks and reads each block's columns
// with wire.DecodeBlock, straight into one wire.ColumnBuilder per field
// in fields (nil: every field); the others are stepped over by their
// framed length. A field a block lacks is NULL in its rows, and a field
// first seen in a later block NULL in every row before it. The builders
// are sized from the blocks' header row counts, so a block holding
// another number of rows than its header says is refused, and no
// string column grows past the file's plaintext bytes. Every block is
// opened into one buffer, sized for the largest and reused across the
// file; the builders copy out what they keep.
func (c *Client) decodeBlocks(blocks []fragment.Block, fields fieldSet) (*wosColumns, error) {
	d := &wosColumns{fields: fields}
	blocks = slices.DeleteFunc(slices.Clone(blocks), func(b fragment.Block) bool { return b.Kind != fragment.BlockData })
	plainBytes, scratch := 0, 0 // the file's plaintext; the most one Open needs
	for _, b := range blocks {
		// Every row spends at least a byte of plaintext: a count its
		// block could not hold is refused before anything is sized by it.
		plainLen := blockenc.PlainLen(b.Payload)
		if b.RowCount < 0 || b.RowCount > int64(plainLen) || int64(d.n)+b.RowCount > math.MaxInt32 {
			return nil, fmt.Errorf("%w: a block of %d plaintext bytes whose header says %d rows", wire.ErrBlockCorrupt, plainLen, b.RowCount)
		}
		d.blocks = append(d.blocks, wosBlock{Timestamp: b.Timestamp, StartRow: b.StartRow, first: int32(d.n)})
		d.n += int(b.RowCount)
		plainBytes += plainLen
		scratch = max(scratch, plainLen+len(b.Payload))
	}
	d.changes = make([]byte, d.n)
	d.seqs = make([]int64, d.n)
	d.arity = make([]int32, d.n)
	var cols []*wire.ColumnBuilder // one per field seen; nil for one outside fields
	plain := make([]byte, 0, scratch)
	i := 0 // the block's first row in d
	for _, b := range blocks {
		var err error
		if plain, err = c.sealer.Open(b.Payload, plain...); err != nil {
			return nil, err
		}
		width := 0 // the block's columns
		changes, arity, err := wire.DecodeBlock(plain, func(f, rows int) *wire.ColumnBuilder {
			width = f + 1
			if rows != int(b.RowCount) {
				return nil // refused below
			}
			for len(cols) <= f {
				var cb *wire.ColumnBuilder
				if fields.has(len(cols)) {
					cb = wire.NewColumnBuilder("", d.n, plainBytes)
					cb.AppendNulls(i)
				}
				cols = append(cols, cb)
			}
			return cols[f]
		})
		if err != nil {
			return nil, err
		}
		if int64(len(changes)) != b.RowCount {
			return nil, fmt.Errorf("%w: a block of %d rows whose header says %d", wire.ErrBlockCorrupt, len(changes), b.RowCount)
		}
		for _, cb := range cols[width:] {
			if cb != nil {
				cb.AppendNulls(len(changes))
			}
		}
		copy(d.changes[i:], changes)
		copy(d.arity[i:], arity)
		for k := range changes {
			d.seqs[i+k] = int64(b.Timestamp) + int64(k)
		}
		i += len(changes)
	}
	if !slices.ContainsFunc(d.arity, func(a int32) bool { return a != d.arity[0] }) {
		d.arity = nil
	}
	d.cols = make([]wire.Vector, len(cols))
	for f, cb := range cols {
		if cb != nil {
			d.cols[f] = cb.Vector()
		}
	}
	if !slices.Contains(cols, nil) { // every field the file carries was decoded
		d.fields = nil
	}
	return d, nil
}

// fieldSet is a set of top-level field indexes — the fields a scan
// reads, or those a decoded WOS file holds. Nil is every field.
type fieldSet []uint64

// projectedFields is the set of fields plan's scans read: nil when its
// projection names every field of its schema, or there is none.
func projectedFields(plan *ScanPlan) fieldSet {
	if plan.Projection == nil {
		return nil
	}
	s, all := make(fieldSet, (len(plan.Schema.Fields)+63)/64), true
	for f, field := range plan.Schema.Fields {
		if plan.Projection[field.Name] {
			s[f/64] |= 1 << (f % 64)
		} else {
			all = false
		}
	}
	if all {
		return nil
	}
	return s
}

// has reports whether s holds field f.
func (s fieldSet) has(f int) bool {
	return s == nil || f/64 < len(s) && s[f/64]&(1<<(f%64)) != 0
}

// covers reports whether s holds every field t holds.
func (s fieldSet) covers(t fieldSet) bool {
	if s == nil {
		return true
	}
	if t == nil {
		return false
	}
	for i, w := range t {
		if w != 0 && (i >= len(s) || w&^s[i] != 0) {
			return false
		}
	}
	return true
}

// union is the set of the fields s or t holds.
func (s fieldSet) union(t fieldSet) fieldSet {
	if s == nil || t == nil {
		return nil
	}
	u := make(fieldSet, max(len(s), len(t)))
	copy(u, s)
	for i, w := range t {
		u[i] |= w
	}
	return u
}

// selectWOS applies the §7.1 snapshot bound, stream visibility and
// deletion masks to a WOS file's decoded rows. The bound is two-level —
// a block past the snapshot ends the whole fragment, a row past it ends
// only its block. The result is nil while every row is visible, so a
// full-visibility scan allocates nothing.
func selectWOS(snapshot truetime.Timestamp, a Assignment, w *wosPlacement, d *wosColumns) wire.Selection {
	var sel wire.Selection
	all := true // every row before the current one is selected
	drop := func(i int32) {
		if all {
			all, sel = false, wire.SelectAll(int(i))
		}
	}
	for bi, b := range d.blocks {
		if b.Timestamp > snapshot {
			drop(b.first)
			break
		}
		end := int32(d.n)
		if bi+1 < len(d.blocks) {
			end = d.blocks[bi+1].first
		}
		for i := b.first; i < end; i++ {
			if truetime.Timestamp(d.seqs[i]) > snapshot {
				drop(i)
				break
			}
			local := b.StartRow + int64(i-b.first)
			if !rowVisible(&a, w.streamletStart+local, local-w.fragStartRow) {
				drop(i)
			} else if !all {
				sel = append(sel, i)
			}
		}
	}
	return sel
}

func (a Assignment) streamletStart() int64 {
	if a.Live {
		return a.StreamletStart
	}
	return a.StreamStart - a.Frag.StartRow
}

// rowVisible applies stream-type visibility and deletion masks. It runs
// once per row, so it takes the assignment by pointer, not by copy.
func rowVisible(a *Assignment, streamOffset, fragLocal int64) bool {
	switch a.Vis.Type {
	case meta.Buffered:
		if streamOffset >= a.Vis.FlushedOffset {
			return false
		}
	case meta.Pending:
		if !a.Vis.Committed {
			return false
		}
	}
	if a.Mask != nil && fragLocal >= 0 && a.Mask.Deleted(fragLocal) {
		return false
	}
	if a.TailMask != nil && a.TailMask.Deleted(streamOffset) {
		return false
	}
	return true
}

// headerPrefix is how much of a log file fileMapBound reads for its
// header: room for a File Map of about a hundred entries. A header that
// runs past it is read with the whole file.
const headerPrefix = 4 << 10

// fileMapBound reads the successor file's header and returns this
// file's committed size from its File Map, if recorded.
func (c *Client) fileMapBound(a Assignment) (int64, bool) {
	if a.NextPath == "" {
		return 0, false
	}
	data, _, err := c.readReplicated(a.Frag.Clusters, a.NextPath, headerPrefix)
	if err != nil {
		return 0, false
	}
	hdr, _, err := fragment.ParseHeader(data)
	if err != nil && len(data) == headerPrefix {
		if data, _, err = c.readReplicated(a.Frag.Clusters, a.NextPath, -1); err == nil {
			hdr, _, err = fragment.ParseHeader(data)
		}
	}
	if err != nil {
		return 0, false
	}
	return fragment.FileMapBound(a.FragIndex, hdr)
}

// decideTail resolves the commit status of a live file's final append.
// Local decision first: if the other replica holds the identical tail,
// the dual write succeeded and the append is committed. Otherwise ask
// the SMS to reconcile (§7.1 "Reconciliation of the final append").
func (c *Client) decideTail(ctx context.Context, a Assignment, scan *fragment.ScanResult, usedCluster string) (bool, error) {
	var other string
	for _, name := range a.Frag.Clusters {
		if name != usedCluster {
			other = name
		}
	}
	if cl := c.region.Blob(other); cl != nil {
		data, err := cl.Read(a.Frag.Path, 0, -1)
		if err == nil {
			oscan, serr := fragment.Scan(data)
			if serr == nil && len(fragment.Agreed(scan, oscan)) == len(scan.Blocks) {
				// The dual write reached both replicas: committed.
				return true, nil
			}
		}
	}
	// Replicas disagree or one is unreachable: only the SMS can make a
	// consistent decision for all readers. A reconcile is idempotent (a
	// FINALIZED record is answered from the record), so it is retried.
	rec, err := smsRetry(ctx, c, a.Frag.Table, wire.Reconcile, &wire.ReconcileRequest{
		Table:     a.Frag.Table,
		Stream:    a.Stream,
		Streamlet: a.Frag.Streamlet,
	})
	if err != nil {
		return false, fmt.Errorf("client: reconcile: %w", err)
	}
	for _, f := range rec.Fragments {
		if f.Path == a.Frag.Path {
			return scan.End(scan.Blocks) <= f.CommittedBytes, nil
		}
	}
	return false, nil
}

// ReadAll scans every assignment of a snapshot, GOMAXPROCS at a time,
// and returns all visible rows. Row order across assignments is by
// storage sequence.
func (c *Client) ReadAll(ctx context.Context, table meta.TableID, snapshotTS truetime.Timestamp) ([]rowenc.Stamped, *ScanPlan, error) {
	plan, err := c.Plan(ctx, table, snapshotTS)
	if err != nil {
		return nil, nil, err
	}
	batches, err := c.ScanBatches(ctx, plan, plan.Assignments, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, nil, err
	}
	var all []rowenc.Stamped
	for _, b := range batches {
		for _, r := range b.PosRows() {
			all = append(all, r.Stamped)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })
	return all, plan, nil
}
