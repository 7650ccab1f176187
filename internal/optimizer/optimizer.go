// Package optimizer implements the Storage Optimization Service (§6.1):
// a background service that continuously converts write-optimized
// fragments to read-optimized columnar fragments, maintains the LSM of
// fragment generations through atomic creation/deletion-timestamp
// handoffs, performs automatic reclustering of baseline and delta blocks
// (Figure 6), and falls back to stable 1:1 conversions when DML activity
// would otherwise starve optimization (§7.3).
package optimizer

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"vortex/internal/blockenc"
	"vortex/internal/client"
	"vortex/internal/colossus"
	"vortex/internal/dml"
	"vortex/internal/meta"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/sms"
	"vortex/internal/truetime"
	"vortex/internal/wire"
	"vortex/internal/workpool"
)

// Config tunes the optimizer.
type Config struct {
	// TargetROSRows splits conversion output into files of roughly this
	// many rows.
	TargetROSRows int64
	// DeltaMergeRatio triggers a baseline merge when delta rows reach
	// this fraction of baseline rows ("comparable in size", §6.1).
	DeltaMergeRatio float64
	// MinDeltaRows avoids merging trivially small deltas.
	MinDeltaRows int64
}

// DefaultConfig returns production-like conversion thresholds scaled to
// the simulation.
func DefaultConfig() Config {
	return Config{TargetROSRows: 4096, DeltaMergeRatio: 0.5, MinDeltaRows: 64}
}

// Optimizer converts and reclusters one region's tables.
type Optimizer struct {
	cfg    Config
	c      *client.Client
	net    rpc.Transport
	router client.Router
	region *colossus.Region
	clock  truetime.Clock
	// groupBytes is the constant of that name; tests shrink it.
	groupBytes int64
}

// New returns an optimizer using the given client for reads and direct
// Colossus access for writing ROS files.
func New(cfg Config, c *client.Client, net rpc.Transport, router client.Router, region *colossus.Region, clock truetime.Clock) *Optimizer {
	if cfg.TargetROSRows <= 0 {
		cfg.TargetROSRows = 4096
	}
	if cfg.DeltaMergeRatio <= 0 {
		cfg.DeltaMergeRatio = 0.5
	}
	return &Optimizer{cfg: cfg, c: c, net: net, router: router, region: region, clock: clock, groupBytes: groupBytes}
}

// Result summarizes one optimization pass.
type Result struct {
	FragmentsConverted int
	FilesWritten       int
	RowsConverted      int64
	Yielded            bool // storage optimization yielded to DML (§7.3)
}

// groupBytes bounds what one conversion group reads: candidates are
// taken, in the order the SMS lists them, while their committed bytes
// stay under it (a fragment larger than it is a group of its own). A
// group's rows are all in memory while its files are written — as
// typed vectors, nested and BYTES fields as schema.Values, some 18 to
// 19 times their stored size (DESIGN.md §15) — so this is what bounds a
// pass's memory whatever the backlog; and each group is its own atomic
// swap, so a pass that yields to DML loses one group's work.
const groupBytes = 8 << 20

// ConvertTable performs one WOS→ROS conversion pass (Figure 5): it asks
// the SMS for candidate fragments and, group by group, reads their
// visible rows, writes per-partition clustered ROS files, and registers
// the swap atomically. The first group that yields to DML ends the pass.
func (o *Optimizer) ConvertTable(ctx context.Context, table meta.TableID) (Result, error) {
	var res Result
	cands, plan, err := o.candidates(ctx, table)
	if err != nil {
		return res, err
	}
	for len(cands) > 0 {
		n, size := 0, int64(0)
		for n < len(cands) && (n == 0 || size+cands[n].Info.CommittedBytes <= o.groupBytes) {
			size += cands[n].Info.CommittedBytes
			n++
		}
		group := make([]client.Assignment, n)
		for i, rf := range cands[:n] {
			group[i] = client.Assignment{Frag: rf.Info, Mask: rf.Mask, Vis: rf.Vis, StreamStart: rf.StreamStart}
		}
		cands = cands[n:]
		files, rows, err := o.rewrite(ctx, table, plan, group)
		if err == errYield {
			res.Yielded = true
			return res, nil
		}
		if err != nil {
			return res, err
		}
		res.FragmentsConverted += n
		res.FilesWritten += files
		res.RowsConverted += rows
	}
	return res, nil
}

// candidates asks the SMS for the table's conversion candidates and
// builds the plan they are read under.
func (o *Optimizer) candidates(ctx context.Context, table meta.TableID) ([]wire.ReadFragment, *client.ScanPlan, error) {
	resp, err := client.CallSMS(ctx, o.net, o.router, table, wire.ConversionCandidates, &wire.ConversionCandidatesRequest{Table: table})
	if err != nil {
		return nil, nil, err
	}
	cands := resp.Fragments
	if len(cands) == 0 {
		return nil, nil, nil
	}
	sc, err := o.c.GetSchema(ctx, table)
	if err != nil {
		return nil, nil, err
	}
	return cands, &client.ScanPlan{Table: table, SnapshotTS: o.clock.Now().Latest, Schema: sc}, nil
}

// rewrite replaces the fragments of inputs by clustered ROS files of
// their visible rows, superseded UPSERT versions compacted away, in one
// atomic swap. It returns errYield when DML got in first; whatever it
// wrote is then, as after any error, deleted again.
func (o *Optimizer) rewrite(ctx context.Context, table meta.TableID, plan *client.ScanPlan, inputs []client.Assignment) (files int, rows int64, err error) {
	rs, err := o.scanColumns(ctx, plan, inputs)
	if err != nil {
		return 0, 0, err
	}
	oldIDs := make([]meta.FragmentID, len(inputs))
	applied := make(map[meta.FragmentID][]byte, len(inputs))
	for i, a := range inputs {
		oldIDs[i] = a.Frag.ID
		applied[a.Frag.ID] = a.Mask.Clone().Marshal()
	}
	perm, cuts := o.clusteredOrder(plan.Schema, rs)
	infos, err := o.writeFiles(table, plan.Schema, rs, perm, cuts, o.placement(inputs[len(inputs)-1].Frag.Clusters))
	if err == nil {
		_, err = client.CallSMS(ctx, o.net, o.router, table, wire.RegisterConversion, &wire.RegisterConversionRequest{
			Table:        table,
			Old:          oldIDs,
			New:          infos,
			AppliedMasks: applied,
		})
	}
	if err != nil {
		o.deleteFiles(infos)
		if errors.Is(err, sms.ErrDMLActive) || errors.Is(err, sms.ErrMasksChanged) {
			err = errYield
		}
		return 0, 0, err
	}
	return len(infos), int64(len(perm)), nil
}

var errYield = errors.New("optimizer: yielded")

// ConvertTableStable performs a 1:1 stable conversion of candidates:
// each WOS fragment becomes exactly one ROS fragment with identical row
// order and count, so deletion masks transfer verbatim and conversion
// never conflicts with concurrent DML (§7.3).
func (o *Optimizer) ConvertTableStable(ctx context.Context, table meta.TableID) (Result, error) {
	cands, plan, err := o.candidates(ctx, table)
	if err != nil || len(cands) == 0 {
		return Result{}, err
	}
	req := &wire.RegisterConversionRequest{Table: table, TransferMasks: make(map[meta.FragmentID]meta.FragmentID)}
	rows, err := o.writeStable(ctx, plan, cands, req)
	if err == nil {
		_, err = client.CallSMS(ctx, o.net, o.router, table, wire.RegisterConversion, req)
	}
	if err != nil {
		o.deleteFiles(req.New)
		if errors.Is(err, sms.ErrDMLActive) {
			return Result{Yielded: true}, nil
		}
		return Result{}, err
	}
	return Result{FragmentsConverted: len(req.Old), FilesWritten: len(req.New), RowsConverted: rows}, nil
}

// writeStable writes each candidate's rows, masked ones included, as
// one file in the order they have, and enters the pair in req. On error
// req.New holds the files written until then.
func (o *Optimizer) writeStable(ctx context.Context, plan *client.ScanPlan, cands []wire.ReadFragment, req *wire.RegisterConversionRequest) (rows int64, err error) {
	var clusters [2]string // of the last candidate that names any
	for _, rf := range cands {
		// Read WITHOUT masks: the 1:1 output preserves every row so the
		// mask's row indexes stay valid.
		rs, err := o.scanColumns(ctx, plan, []client.Assignment{{Frag: rf.Info, Vis: rf.Vis, StreamStart: rf.StreamStart}})
		if err != nil {
			return 0, err
		}
		if n := int64(len(rs.seqs)); n != rf.Info.RowCount {
			return 0, fmt.Errorf("optimizer: stable conversion of %s read %d rows, metadata says %d", rf.Info.ID, n, rf.Info.RowCount)
		}
		if rf.Info.Clusters[0] != "" {
			clusters = rf.Info.Clusters
		}
		perm := wire.SelectAll(len(rs.seqs))
		written, err := o.writeFiles(plan.Table, plan.Schema, rs, perm, []int{len(perm)}, o.placement(clusters))
		if err != nil {
			return 0, err
		}
		req.Old = append(req.Old, rf.Info.ID)
		req.New = append(req.New, written...)
		req.TransferMasks[rf.Info.ID] = written[0].ID
		rows += rf.Info.RowCount
	}
	return rows, nil
}

// placement is the replica pair of a new ROS file: its sources' pair,
// unless that names one cluster twice — a streamlet degraded to its one
// healthy cluster (§5.6) — in which case the second replica goes to
// another cluster of the region. Inheriting the degenerate pair would
// write the file to one cluster twice (the second conditional write is
// refused) and, had it gone through, leave the file single-homed.
func (o *Optimizer) placement(from [2]string) [2]string {
	if from[0] == from[1] {
		for _, name := range o.region.ClusterNames() {
			if name != from[0] {
				from[1] = name
				break
			}
		}
	}
	return from
}

// rowSet is the visible rows of some fragments held as columns — what
// ScanBatch produced, concatenated in input order: cols[f] is top-level
// field f as one PLAIN vector, typed where the field's values are of one
// scalar kind (every flat scalar field but BYTES), so conversion sorts,
// stripes and encodes them without a schema.Value per row.
type rowSet struct {
	cols    []wire.Vector
	seqs    []int64
	changes []byte
}

// scanColumns reads the inputs, each on a worker, and concatenates
// their rows in input order. Nothing is materialized per row: each
// batch's cached vectors are copied through its selection onto the end
// of the set's columns, buffer to buffer where they are typed — a ROS
// input's DICT and RLE columns too are laid out in typed buffers.
func (o *Optimizer) scanColumns(ctx context.Context, plan *client.ScanPlan, inputs []client.Assignment) (*rowSet, error) {
	batches, err := o.c.ScanBatches(ctx, plan, inputs, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, fmt.Errorf("optimizer: reading %d fragments: %w", len(inputs), err)
	}
	var rows int
	for _, b := range batches {
		rows += b.NumVisible()
	}
	rs := &rowSet{cols: make([]wire.Vector, len(plan.Schema.Fields)), seqs: make([]int64, 0, rows), changes: make([]byte, 0, rows)}
	cols := make([]*wire.ColumnBuilder, len(rs.cols))
	for f := range cols {
		cols[f] = wire.NewColumnBuilder(plan.Schema.Fields[f].Name, rows, math.MaxInt32)
	}
	for _, b := range batches {
		vecs, sel := b.Vectors(b.Sel)
		for k := range vecs {
			cols[b.ColIdx[k]].AppendVector(&vecs[k], sel)
		}
		seqs, changes := b.RowMeta()
		if sel == nil {
			rs.seqs, rs.changes = append(rs.seqs, seqs...), append(rs.changes, changes...)
		}
		for _, i := range sel {
			rs.seqs, rs.changes = append(rs.seqs, seqs[i]), append(rs.changes, changes[i])
		}
	}
	for f, b := range cols {
		rs.cols[f] = b.Vector()
	}
	return rs, nil
}

// changesOf is dml.ChangeOf for every row of rs, reading only the
// primary-key columns, a value at a time from their vectors.
func changesOf(sc *schema.Schema, rs *rowSet) []dml.Change {
	pk := make([]int, len(sc.PrimaryKey))
	for n, name := range sc.PrimaryKey {
		pk[n] = sc.FieldIndex(name)
	}
	row := schema.Row{Values: make([]schema.Value, len(sc.Fields))}
	out := make([]dml.Change, len(rs.seqs))
	for i := range out {
		for _, f := range pk {
			if f >= 0 { // PrimaryKeyOf reports an unknown column
				row.Values[f] = rs.cols[f].ValueAt(i)
			}
		}
		row.Change = schema.ChangeType(rs.changes[i])
		out[i] = dml.ChangeOf(sc, rs.seqs[i], row)
	}
	return out
}

// noPartition groups the rows that have no partition value; it sorts
// before every real partition.
const noPartition = -1 << 62

// clusteredOrder decides what a rewrite of rs writes and in which
// order, reading only the key, sequence and change columns: rows
// superseded under `_CHANGE_TYPE` are dropped (tombstones are kept:
// older data may exist elsewhere), and the survivors come back as one
// permutation ordered by partition, then clustering key, then sequence —
// ties keeping input order — with cuts[k] the end in it of the k-th
// file: of at most TargetROSRows rows, except that a file never ends
// inside a partition's clustering-key run (the new baseline must be
// non-overlapping in key ranges, §6.1) and never spans partitions.
//
// The survivors are first split into one run per partition, in input
// order, and each run is sorted on a worker by (key, sequence, input
// position): the permutation one stable sort by (partition, key,
// sequence) would give. Partitions are read off the partition column's
// integers and keys compared on the key columns' typed buffers, NULL
// first, as schema.Value.Compare orders them.
func (o *Optimizer) clusteredOrder(sc *schema.Schema, rs *rowSet) (perm []int32, cuts []int) {
	var dead []bool
	if len(sc.PrimaryKey) > 0 {
		dead = dml.Replay(changesOf(sc, rs), false)
	}
	parts := make([]int64, len(rs.seqs))
	pf := sc.FieldIndex(sc.PartitionField)
	for i := range parts {
		parts[i] = noPartition
		if pf >= 0 {
			if p, ok := rs.cols[pf].PartitionOf(i); ok {
				parts[i] = p
			}
		}
	}
	// A counting sort by partition: each run's size, then its place.
	size, total := map[int64]int{}, 0
	var order []int64
	for i, p := range parts {
		if dead == nil || !dead[i] {
			if size[p] == 0 {
				order = append(order, p)
			}
			size[p]++
			total++
		}
	}
	slices.Sort(order)
	run, runs := make(map[int64]int, len(order)), make([][]int32, len(order))
	perm = make([]int32, total)
	at := 0
	for k, p := range order {
		run[p], runs[k] = k, perm[at:at:at+size[p]]
		at += size[p]
	}
	for i, p := range parts {
		if dead == nil || !dead[i] {
			runs[run[p]] = append(runs[run[p]], int32(i))
		}
	}
	keys := make([]func(i, j int) int, 0, len(sc.ClusterBy))
	for _, name := range sc.ClusterBy {
		keys = append(keys, rs.cols[sc.FieldIndex(name)].Order())
	}
	compareKeys := func(a, b int32) int {
		for _, order := range keys {
			if c := order(int(a), int(b)); c != 0 {
				return c
			}
		}
		return 0
	}
	_ = workpool.Run(len(runs), runtime.GOMAXPROCS(0), func(_, k int) error { // a sort cannot fail
		slices.SortFunc(runs[k], func(a, b int32) int {
			if c := compareKeys(a, b); c != 0 {
				return c
			}
			if c := cmp.Compare(rs.seqs[a], rs.seqs[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b) // a run lists its rows in input order
		})
		return nil
	})
	for start := 0; start < len(perm); {
		end := start + 1
		for end < len(perm) && parts[perm[end]] == parts[perm[start]] &&
			(end-start < int(o.cfg.TargetROSRows) || compareKeys(perm[end], perm[end-1]) == 0) {
			end++
		}
		cuts = append(cuts, end)
		start = end
	}
	return perm, cuts
}

// writeFiles writes rows perm[:cuts[0]], perm[cuts[0]:cuts[1]], … of rs
// as one ROS file each, on the given replica pair. The files are encoded
// on workers, each with its own Writer; only when every one has encoded
// are they given ids and written, in file order, so the ids drawn and
// the writes Colossus sees do not depend on the workers. On error it has
// deleted what it wrote.
func (o *Optimizer) writeFiles(table meta.TableID, sc *schema.Schema, rs *rowSet, perm []int32, cuts []int, clusters [2]string) ([]meta.FragmentInfo, error) {
	infos := make([]meta.FragmentInfo, len(cuts))
	data := make([][]byte, len(cuts))
	writers := make([]*ros.Writer, runtime.GOMAXPROCS(0))
	err := workpool.Run(len(cuts), len(writers), func(w, k int) error {
		if writers[w] == nil {
			writers[w] = ros.NewWriter(sc)
			writers[w].AllowMixedPartitions() // tolerates the "no partition" group
		}
		start := 0
		if k > 0 {
			start = cuts[k-1]
		}
		var err error
		data[k], err = encodeFile(sc, writers[w], rs, perm[start:cuts[k]], &infos[k])
		return err
	})
	if err != nil {
		return nil, err
	}
	for k := range infos {
		if err := o.storeFile(table, &infos[k], data[k], clusters); err != nil {
			o.deleteFiles(infos[:k])
			return nil, err
		}
	}
	return infos, nil
}

// encodeFile encodes rows perm of rs as one ROS file on w and fills in
// what info says of the file's contents: the column properties Big
// Metadata indexes.
func encodeFile(sc *schema.Schema, w *ros.Writer, rs *rowSet, perm []int32, info *meta.FragmentInfo) ([]byte, error) {
	w.Reset()
	if err := w.AddColumns(rs.cols, rs.seqs, rs.changes, perm); err != nil {
		return nil, err
	}
	data, err := w.Finish()
	if err != nil {
		return nil, err
	}
	minSeq, maxSeq := w.SeqBounds()
	*info = meta.FragmentInfo{
		Format:         meta.ROS,
		RowCount:       w.RowCount(),
		CommittedBytes: int64(len(data)),
		MinRecordTS:    truetime.Timestamp(minSeq),
		MaxRecordTS:    truetime.Timestamp(maxSeq),
		SchemaVersion:  sc.Version,
		Finalized:      true,
		PartitionSet:   w.Partitions(),
		Bloom:          w.Bloom(),
	}
	if mn, mx := w.ClusterBounds(); len(mn) > 0 {
		info.ClusterMin = rowenc.EncodeValues(mn)
		info.ClusterMax = rowenc.EncodeValues(mx)
	}
	return data, nil
}

// storeFile gives an encoded file its id and writes it to both replica
// clusters, completing its info.
func (o *Optimizer) storeFile(table meta.TableID, info *meta.FragmentInfo, data []byte, clusters [2]string) error {
	id := newROSID()
	path := fmt.Sprintf("ros/%s/%s", table, id)
	crc := blockenc.Checksum(data)
	for i, cn := range clusters {
		var err error
		cl := o.region.Cluster(cn)
		if cl == nil {
			err = fmt.Errorf("optimizer: no cluster %q", cn)
		} else if _, err = cl.AppendAt(path, 0, data, crc); err != nil {
			err = fmt.Errorf("optimizer: writing %s: %w", path, err)
		}
		if err != nil {
			// The file is registered nowhere yet: take back the replica
			// an earlier cluster accepted rather than orphan it.
			for _, written := range clusters[:i] {
				_ = o.region.Cluster(written).Delete(path)
			}
			return err
		}
	}
	info.ID, info.Table, info.Path, info.Clusters = meta.FragmentID("ros/"+id), table, path, clusters
	return nil
}

// deleteFiles takes back files nothing has registered, each from the
// replica pair it was written to.
func (o *Optimizer) deleteFiles(infos []meta.FragmentInfo) {
	for _, info := range infos {
		for _, cn := range info.Clusters {
			if cl := o.region.Cluster(cn); cl != nil {
				_ = cl.Delete(info.Path)
			}
		}
	}
}

func newROSID() string {
	return meta.RandomHex(8)
}
