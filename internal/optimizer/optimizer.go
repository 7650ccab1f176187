// Package optimizer implements the Storage Optimization Service (§6.1):
// a background service that continuously converts write-optimized
// fragments to read-optimized columnar fragments, maintains the LSM of
// fragment generations through atomic creation/deletion-timestamp
// handoffs, performs automatic reclustering of baseline and delta blocks
// (Figure 6), and falls back to stable 1:1 conversions when DML activity
// would otherwise starve optimization (§7.3).
package optimizer

import (
	"context"
	"errors"
	"fmt"
	"sort"

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
	return &Optimizer{cfg: cfg, c: c, net: net, router: router, region: region, clock: clock}
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

// ConvertTable performs one WOS→ROS conversion pass (Figure 5): it asks
// the SMS for candidate fragments, reads their visible rows, writes
// per-partition clustered ROS files, and registers the swap atomically.
func (o *Optimizer) ConvertTable(ctx context.Context, table meta.TableID) (Result, error) {
	var res Result
	resp, err := o.sms(ctx, table, wire.MethodConversionCandidates, &wire.ConversionCandidatesRequest{Table: table})
	if err != nil {
		return res, err
	}
	cands := resp.(*wire.ConversionCandidatesResponse).Fragments
	if len(cands) == 0 {
		return res, nil
	}
	sc, err := o.c.GetSchema(ctx, table)
	if err != nil {
		return res, err
	}
	plan := &client.ScanPlan{Table: table, SnapshotTS: o.clock.Now().Latest, Schema: sc}

	var all []rowenc.Stamped
	oldIDs := make([]meta.FragmentID, 0, len(cands))
	applied := make(map[meta.FragmentID][]byte, len(cands))
	var clusters [2]string
	for _, rf := range cands {
		a := client.Assignment{Frag: rf.Info, Mask: rf.Mask, Vis: rf.Vis, StreamStart: rf.StreamStart}
		rows, err := o.c.Scan(ctx, plan, a)
		if err != nil {
			return res, fmt.Errorf("optimizer: reading %s: %w", rf.Info.ID, err)
		}
		all = append(all, rows...)
		oldIDs = append(oldIDs, rf.Info.ID)
		applied[rf.Info.ID] = rf.Mask.Clone().Marshal()
		clusters = rf.Info.Clusters
	}

	// Compact superseded UPSERT versions within the converted set;
	// tombstones are kept (older data may exist elsewhere).
	all = dml.ResolveChanges(sc, all, false)

	files, infos, err := o.writeClusteredFiles(table, sc, all, clusters)
	if err != nil {
		o.deleteFiles(files, clusters)
		return res, err
	}
	_, err = o.sms(ctx, table, wire.MethodRegisterConversion, &wire.RegisterConversionRequest{
		Table:        table,
		Old:          oldIDs,
		New:          infos,
		AppliedMasks: applied,
	})
	if err != nil {
		o.deleteFiles(files, clusters)
		if errors.Is(err, sms.ErrDMLActive) || errors.Is(err, sms.ErrMasksChanged) {
			res.Yielded = true
			return res, nil
		}
		return res, err
	}
	res.FragmentsConverted = len(oldIDs)
	res.FilesWritten = len(infos)
	res.RowsConverted = int64(len(all))
	return res, nil
}

// ConvertTableStable performs a 1:1 stable conversion of candidates:
// each WOS fragment becomes exactly one ROS fragment with identical row
// order and count, so deletion masks transfer verbatim and conversion
// never conflicts with concurrent DML (§7.3).
func (o *Optimizer) ConvertTableStable(ctx context.Context, table meta.TableID) (Result, error) {
	var res Result
	resp, err := o.sms(ctx, table, wire.MethodConversionCandidates, &wire.ConversionCandidatesRequest{Table: table})
	if err != nil {
		return res, err
	}
	cands := resp.(*wire.ConversionCandidatesResponse).Fragments
	if len(cands) == 0 {
		return res, nil
	}
	sc, err := o.c.GetSchema(ctx, table)
	if err != nil {
		return res, err
	}
	plan := &client.ScanPlan{Table: table, SnapshotTS: o.clock.Now().Latest, Schema: sc}
	var oldIDs []meta.FragmentID
	var infos []meta.FragmentInfo
	var files []string
	transfer := make(map[meta.FragmentID]meta.FragmentID)
	var clusters [2]string
	for _, rf := range cands {
		// Read WITHOUT masks: the 1:1 output preserves every row so the
		// mask's row indexes stay valid.
		a := client.Assignment{Frag: rf.Info, Vis: rf.Vis, StreamStart: rf.StreamStart}
		rows, err := o.c.Scan(ctx, plan, a)
		if err != nil {
			return res, err
		}
		if int64(len(rows)) != rf.Info.RowCount {
			return res, fmt.Errorf("optimizer: stable conversion of %s read %d rows, metadata says %d", rf.Info.ID, len(rows), rf.Info.RowCount)
		}
		w := ros.NewWriter(sc)
		w.AllowMixedPartitions()
		for _, r := range rows {
			if err := w.Add(r.Row, r.Seq); err != nil {
				return res, err
			}
		}
		info, path, err := o.finishFile(table, sc, w, clustersOf(rf, clusters))
		if err != nil {
			return res, err
		}
		oldIDs = append(oldIDs, rf.Info.ID)
		infos = append(infos, *info)
		files = append(files, path)
		transfer[rf.Info.ID] = info.ID
		clusters = rf.Info.Clusters
		res.RowsConverted += int64(len(rows))
	}
	_, err = o.sms(ctx, table, wire.MethodRegisterConversion, &wire.RegisterConversionRequest{
		Table:         table,
		Old:           oldIDs,
		New:           infos,
		TransferMasks: transfer,
	})
	if err != nil {
		o.deleteFiles(files, clusters)
		if errors.Is(err, sms.ErrDMLActive) {
			res.Yielded = true
			return res, nil
		}
		return res, err
	}
	res.FragmentsConverted = len(oldIDs)
	res.FilesWritten = len(infos)
	return res, nil
}

func clustersOf(rf wire.ReadFragment, fallback [2]string) [2]string {
	if rf.Info.Clusters[0] != "" {
		return rf.Info.Clusters
	}
	return fallback
}

// writeClusteredFiles groups rows by partition, sorts each partition by
// clustering key (stable by sequence), and writes ROS files of at most
// TargetROSRows rows. On error it returns the files already written,
// which nothing has registered: the caller deletes them.
func (o *Optimizer) writeClusteredFiles(table meta.TableID, sc *schema.Schema, rows []rowenc.Stamped, clusters [2]string) ([]string, []meta.FragmentInfo, error) {
	groups := map[int64][]rowenc.Stamped{}
	for _, r := range rows {
		p, ok := sc.PartitionOf(r.Row)
		if !ok {
			p = -1 << 62
		}
		groups[p] = append(groups[p], r)
	}
	parts := make([]int64, 0, len(groups))
	for p := range groups {
		parts = append(parts, p)
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i] < parts[j] })

	var files []string
	var infos []meta.FragmentInfo
	for _, p := range parts {
		g := groups[p]
		sort.SliceStable(g, func(i, j int) bool {
			ci := schema.CompareClusterKeys(sc.ClusterKeyOf(g[i].Row), sc.ClusterKeyOf(g[j].Row))
			if ci != 0 {
				return ci < 0
			}
			return g[i].Seq < g[j].Seq
		})
		for start := int64(0); start < int64(len(g)); {
			end := start + o.cfg.TargetROSRows
			if end > int64(len(g)) {
				end = int64(len(g))
			}
			// Never split a clustering-key run across files: the new
			// baseline must be non-overlapping in key ranges (§6.1).
			for end < int64(len(g)) &&
				schema.CompareClusterKeys(sc.ClusterKeyOf(g[end].Row), sc.ClusterKeyOf(g[end-1].Row)) == 0 {
				end++
			}
			w := ros.NewWriter(sc)
			w.AllowMixedPartitions() // tolerates the "no partition" group
			for _, r := range g[start:end] {
				if err := w.Add(r.Row, r.Seq); err != nil {
					return files, nil, err
				}
			}
			info, path, err := o.finishFile(table, sc, w, clusters)
			if err != nil {
				return files, nil, err
			}
			files = append(files, path)
			infos = append(infos, *info)
			start = end
		}
	}
	return files, infos, nil
}

// finishFile encodes one ROS file, writes it to both replica clusters
// and builds its FragmentInfo (with the column properties Big Metadata
// indexes).
func (o *Optimizer) finishFile(table meta.TableID, sc *schema.Schema, w *ros.Writer, clusters [2]string) (*meta.FragmentInfo, string, error) {
	data, err := w.Finish()
	if err != nil {
		return nil, "", err
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
			return nil, "", err
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
	return info, path, nil
}

func (o *Optimizer) deleteFiles(paths []string, clusters [2]string) {
	for _, p := range paths {
		for _, cn := range clusters {
			if cl := o.region.Cluster(cn); cl != nil {
				_ = cl.Delete(p)
			}
		}
	}
}

func newROSID() string {
	return meta.RandomHex(8)
}
