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

func (o *Optimizer) sms(ctx context.Context, table meta.TableID, method string, req any) (any, error) {
	addr, err := o.router.SMSFor(table)
	if err != nil {
		return nil, err
	}
	return o.net.Unary(ctx, addr, method, req)
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
// schema.Values, 50 to 70 times their stored size (DESIGN.md §15) — so
// this is what bounds a pass's memory whatever the backlog; and each
// group is its own atomic swap, so a pass that yields to DML loses one
// group's work.
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
	resp, err := o.sms(ctx, table, wire.MethodConversionCandidates, &wire.ConversionCandidatesRequest{Table: table})
	if err != nil {
		return nil, nil, err
	}
	cands := resp.(*wire.ConversionCandidatesResponse).Fragments
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
		_, err = o.sms(ctx, table, wire.MethodRegisterConversion, &wire.RegisterConversionRequest{
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
		_, err = o.sms(ctx, table, wire.MethodRegisterConversion, req)
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
// ScanBatch produced, concatenated in input order: cols[f][i] is row i's
// value of top-level field f.
type rowSet struct {
	cols    [][]schema.Value
	seqs    []int64
	changes []byte
}

// scanColumns reads the inputs in order. Nothing is materialized per
// row: each batch's cached vectors are gathered through its selection
// onto the end of the set's columns.
func (o *Optimizer) scanColumns(ctx context.Context, plan *client.ScanPlan, inputs []client.Assignment) (*rowSet, error) {
	var most int64 // no input has more visible rows than rows
	for _, a := range inputs {
		most += a.Frag.RowCount
	}
	rs := &rowSet{cols: make([][]schema.Value, len(plan.Schema.Fields)), seqs: make([]int64, 0, most), changes: make([]byte, 0, most)}
	for f := range rs.cols {
		rs.cols[f] = make([]schema.Value, 0, most)
	}
	for _, a := range inputs {
		b, err := o.c.ScanBatch(ctx, plan, a)
		if err != nil {
			return nil, fmt.Errorf("optimizer: reading %s: %w", a.Frag.ID, err)
		}
		vecs, sel := b.Vectors(b.Sel)
		for k := range vecs {
			f := b.ColIdx[k]
			rs.cols[f] = append(rs.cols[f], vecs[k].Gather(sel)...)
		}
		seqs, changes := b.RowMeta()
		if sel == nil {
			rs.seqs, rs.changes = append(rs.seqs, seqs...), append(rs.changes, changes...)
		}
		for _, i := range sel {
			rs.seqs, rs.changes = append(rs.seqs, seqs[i]), append(rs.changes, changes[i])
		}
	}
	return rs, nil
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
func (o *Optimizer) clusteredOrder(sc *schema.Schema, rs *rowSet) (perm []int32, cuts []int) {
	var dead []bool
	if len(sc.PrimaryKey) > 0 {
		dead = dml.Replay(dml.ChangesOf(sc, rs.cols, rs.seqs, rs.changes), false)
	}
	perm = make([]int32, 0, len(rs.seqs))
	for i := range rs.seqs {
		if dead == nil || !dead[i] {
			perm = append(perm, int32(i))
		}
	}
	parts := make([]int64, len(rs.seqs))
	pf := sc.FieldIndex(sc.PartitionField)
	for i := range parts {
		parts[i] = noPartition
		if pf >= 0 {
			if p, ok := schema.PartitionOfValue(rs.cols[pf][i]); ok {
				parts[i] = p
			}
		}
	}
	keys := make([][]schema.Value, 0, len(sc.ClusterBy))
	for _, name := range sc.ClusterBy {
		keys = append(keys, rs.cols[sc.FieldIndex(name)])
	}
	compareKeys := func(a, b int32) int {
		for _, col := range keys {
			if c := col[a].Compare(col[b]); c != 0 {
				return c
			}
		}
		return 0
	}
	slices.SortStableFunc(perm, func(a, b int32) int {
		if c := cmp.Compare(parts[a], parts[b]); c != 0 {
			return c
		}
		if c := compareKeys(a, b); c != 0 {
			return c
		}
		return cmp.Compare(rs.seqs[a], rs.seqs[b])
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
// as one ROS file each, on the given replica pair. On error it has
// deleted what it wrote.
func (o *Optimizer) writeFiles(table meta.TableID, sc *schema.Schema, rs *rowSet, perm []int32, cuts []int, clusters [2]string) ([]meta.FragmentInfo, error) {
	infos := make([]meta.FragmentInfo, 0, len(cuts))
	w := ros.NewWriter(sc)
	w.AllowMixedPartitions() // tolerates the "no partition" group
	start := 0
	for _, end := range cuts {
		w.Reset()
		err := w.AddColumns(rs.cols, rs.seqs, rs.changes, perm[start:end])
		var info *meta.FragmentInfo
		if err == nil {
			info, err = o.finishFile(table, sc, w, clusters)
		}
		if err != nil {
			o.deleteFiles(infos)
			return nil, err
		}
		infos = append(infos, *info)
		start = end
	}
	return infos, nil
}

// finishFile encodes one ROS file, writes it to both replica clusters
// and builds its FragmentInfo (with the column properties Big Metadata
// indexes).
func (o *Optimizer) finishFile(table meta.TableID, sc *schema.Schema, w *ros.Writer, clusters [2]string) (*meta.FragmentInfo, error) {
	data, err := w.Finish()
	if err != nil {
		return nil, err
	}
	id := newROSID()
	path := fmt.Sprintf("ros/%s/%s", table, id)
	crc := blockenc.Checksum(data)
	for i, cn := range clusters {
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
			return nil, err
		}
	}
	minSeq, maxSeq := w.SeqBounds()
	info := &meta.FragmentInfo{
		ID:             meta.FragmentID("ros/" + id),
		Table:          table,
		Format:         meta.ROS,
		Path:           path,
		Clusters:       clusters,
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
	return info, nil
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
