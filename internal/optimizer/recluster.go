package optimizer

import (
	"context"
	"sort"

	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// ClusterState describes a table's ROS layout with respect to its
// clustering columns (Figure 6).
type ClusterState struct {
	// Baseline is the maximal set of mutually non-overlapping fragments
	// per partition; Delta is everything else.
	BaselineRows      int64
	DeltaRows         int64
	BaselineFragments int
	DeltaFragments    int
	// Ratio is the clustering ratio: the fraction of ROS rows living in
	// non-overlapping blocks (§6.1).
	Ratio float64
}

type rosFrag struct {
	a    client.Assignment
	min  []schema.Value
	max  []schema.Value
	part int64
	rows int64
}

// clusterStateOf partitions the plan's ROS fragments into baseline and
// delta per partition: scanning fragments in ascending ClusterMin order,
// a fragment joins the baseline if it does not overlap the baseline
// fragment before it.
func clusterStateOf(plan *client.ScanPlan) (ClusterState, map[int64][]rosFrag, map[int64][]rosFrag, error) {
	var st ClusterState
	frags := map[int64][]rosFrag{}
	for _, a := range plan.Assignments {
		if a.Frag.Format != meta.ROS {
			continue
		}
		rf := rosFrag{a: a, rows: a.Frag.RowCount}
		if len(a.Frag.ClusterMin) > 0 {
			var err error
			if rf.min, err = rowenc.DecodeValues(a.Frag.ClusterMin); err != nil {
				return st, nil, nil, err
			}
			if rf.max, err = rowenc.DecodeValues(a.Frag.ClusterMax); err != nil {
				return st, nil, nil, err
			}
		}
		rf.part = -1 << 62
		if len(a.Frag.PartitionSet) == 1 {
			rf.part = a.Frag.PartitionSet[0]
		}
		frags[rf.part] = append(frags[rf.part], rf)
	}
	baseline := map[int64][]rosFrag{}
	delta := map[int64][]rosFrag{}
	for part, fs := range frags {
		base, rest := maxNonOverlapping(fs)
		baseline[part] = base
		delta[part] = rest
		for _, f := range base {
			st.BaselineRows += f.rows
			st.BaselineFragments++
		}
		for _, f := range rest {
			st.DeltaRows += f.rows
			st.DeltaFragments++
		}
	}
	if total := st.BaselineRows + st.DeltaRows; total > 0 {
		st.Ratio = float64(st.BaselineRows) / float64(total)
	} else {
		st.Ratio = 1
	}
	return st, baseline, delta, nil
}

// maxNonOverlapping picks the baseline: the row-weight-maximal set of
// mutually non-overlapping fragments (weighted interval scheduling).
// Fragments without clustering bounds are always delta.
func maxNonOverlapping(fs []rosFrag) (baseline, delta []rosFrag) {
	var ranged []rosFrag
	for _, f := range fs {
		if f.min == nil {
			delta = append(delta, f)
			continue
		}
		ranged = append(ranged, f)
	}
	if len(ranged) == 0 {
		return nil, delta
	}
	sort.Slice(ranged, func(i, j int) bool {
		if c := schema.CompareClusterKeys(ranged[i].max, ranged[j].max); c != 0 {
			return c < 0
		}
		return schema.CompareClusterKeys(ranged[i].min, ranged[j].min) < 0
	})
	n := len(ranged)
	// pred[i]: last j < i whose max is strictly below ranged[i].min.
	pred := make([]int, n)
	for i := range ranged {
		pred[i] = -1
		for j := i - 1; j >= 0; j-- {
			if schema.CompareClusterKeys(ranged[j].max, ranged[i].min) < 0 {
				pred[i] = j
				break
			}
		}
	}
	dp := make([]int64, n+1)
	take := make([]bool, n)
	for i := 0; i < n; i++ {
		with := ranged[i].rows
		if pred[i] >= 0 {
			with += dp[pred[i]+1]
		}
		if with > dp[i] {
			dp[i+1] = with
			take[i] = true
		} else {
			dp[i+1] = dp[i]
		}
	}
	inBase := make([]bool, n)
	for i := n - 1; i >= 0; {
		if take[i] {
			inBase[i] = true
			i = pred[i]
		} else {
			i--
		}
	}
	for i, f := range ranged {
		if inBase[i] {
			baseline = append(baseline, f)
		} else {
			delta = append(delta, f)
		}
	}
	return baseline, delta
}

// ClusteringRatio reports the table's current clustering ratio.
func (o *Optimizer) ClusteringRatio(ctx context.Context, table meta.TableID) (ClusterState, error) {
	plan, err := o.c.Plan(ctx, table, 0)
	if err != nil {
		return ClusterState{}, err
	}
	st, _, _, err := clusterStateOf(plan)
	return st, err
}

// Recluster runs one automatic-reclustering step (Figure 6): when a
// partition's delta has grown to DeltaMergeRatio of its baseline, merge
// them into a new non-overlapping baseline. force merges regardless of
// the trigger. It returns the partitions merged.
func (o *Optimizer) Recluster(ctx context.Context, table meta.TableID, force bool) (int, error) {
	plan, err := o.c.Plan(ctx, table, 0)
	if err != nil {
		return 0, err
	}
	_, baseline, delta, err := clusterStateOf(plan)
	if err != nil {
		return 0, err
	}
	merged := 0
	for part, deltas := range delta {
		if len(deltas) == 0 {
			continue
		}
		var baseRows, deltaRows int64
		for _, f := range baseline[part] {
			baseRows += f.rows
		}
		for _, f := range deltas {
			deltaRows += f.rows
		}
		if !force {
			if deltaRows < o.cfg.MinDeltaRows {
				continue
			}
			if baseRows > 0 && float64(deltaRows) < o.cfg.DeltaMergeRatio*float64(baseRows) {
				continue
			}
		}
		if err := o.mergePartition(ctx, table, plan, append(baseline[part], deltas...)); err != nil {
			if err == errYield {
				continue
			}
			return merged, err
		}
		merged++
	}
	return merged, nil
}

// mergePartition merges every fragment of one partition — baseline and
// delta — into a fresh non-overlapping baseline: one rewrite.
func (o *Optimizer) mergePartition(ctx context.Context, table meta.TableID, plan *client.ScanPlan, frags []rosFrag) error {
	inputs := make([]client.Assignment, len(frags))
	for i, f := range frags {
		inputs[i] = f.a
	}
	_, _, err := o.rewrite(ctx, table, plan, inputs)
	return err
}
