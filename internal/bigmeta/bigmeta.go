// Package bigmeta reproduces Big Metadata (§6.2, §7.2): a columnar index
// of fine-grained column properties — partition sets, clustering-key
// ranges and bloom filters — over a table's fragments, plus the
// derivative-expression evaluation that partition elimination uses to
// prune fragments a query cannot match.
//
// Like the production system, the index lags the fragment set: freshly
// committed fragments may not be indexed yet (the "tail"); the query
// engine prunes indexed fragments through the index and evaluates the
// tail's inline properties directly.
package bigmeta

import (
	"fmt"
	"sync"

	"vortex/internal/bloom"
	"vortex/internal/meta"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// Entry is the indexed column-property record of one fragment.
type Entry struct {
	Table        meta.TableID
	Fragment     meta.FragmentID
	PartitionSet []int64
	ClusterMin   []schema.Value
	ClusterMax   []schema.Value
	Bloom        *bloom.Filter
}

// EntryFromFragment extracts the indexable properties of a fragment.
// Fragments without properties (e.g. unfinalized) index as unprunable.
func EntryFromFragment(f *meta.FragmentInfo) (*Entry, error) {
	e := &Entry{
		Table:        f.Table,
		Fragment:     f.ID,
		PartitionSet: append([]int64(nil), f.PartitionSet...),
	}
	var err error
	if len(f.ClusterMin) > 0 {
		if e.ClusterMin, err = rowenc.DecodeValues(f.ClusterMin); err != nil {
			return nil, fmt.Errorf("bigmeta: cluster min of %s: %w", f.ID, err)
		}
		if e.ClusterMax, err = rowenc.DecodeValues(f.ClusterMax); err != nil {
			return nil, fmt.Errorf("bigmeta: cluster max of %s: %w", f.ID, err)
		}
	}
	if len(f.Bloom) > 0 {
		if e.Bloom, err = bloom.Unmarshal(f.Bloom); err != nil {
			return nil, fmt.Errorf("bigmeta: bloom of %s: %w", f.ID, err)
		}
	}
	return e, nil
}

// Index is the Big Metadata columnar index for a region.
type Index struct {
	mu      sync.Mutex
	byTable map[meta.TableID]map[meta.FragmentID]*Entry
	// lag holds pending changes not yet applied — the index's tail.
	lag      []change
	lagDepth int // number of Apply calls a change waits before indexing
}

type change struct {
	table   meta.TableID
	added   []*Entry
	deleted []meta.FragmentID
	waits   int
}

// NewIndex returns an index that applies changes immediately.
func NewIndex() *Index {
	return &Index{byTable: make(map[meta.TableID]map[meta.FragmentID]*Entry)}
}

// SetLagDepth makes changes wait n Apply rounds before being indexed,
// modelling the indexing lag of §6.2. Zero applies immediately.
func (ix *Index) SetLagDepth(n int) {
	ix.mu.Lock()
	ix.lagDepth = n
	ix.mu.Unlock()
}

// FragmentsChanged implements sms.FragmentListener.
func (ix *Index) FragmentsChanged(table meta.TableID, added []meta.FragmentInfo, deleted []meta.FragmentID) {
	entries := make([]*Entry, 0, len(added))
	for i := range added {
		e, err := EntryFromFragment(&added[i])
		if err != nil {
			e = &Entry{Table: table, Fragment: added[i].ID} // index as unprunable
		}
		entries = append(entries, e)
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ch := change{table: table, added: entries, deleted: deleted, waits: ix.lagDepth}
	if ch.waits == 0 {
		ix.applyLocked(ch)
		return
	}
	ix.lag = append(ix.lag, ch)
}

// Apply advances the indexing pipeline one round, applying changes whose
// wait expired. The region's housekeeping loop calls this.
func (ix *Index) Apply() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var still []change
	for _, ch := range ix.lag {
		ch.waits--
		if ch.waits <= 0 {
			ix.applyLocked(ch)
		} else {
			still = append(still, ch)
		}
	}
	ix.lag = still
}

func (ix *Index) applyLocked(ch change) {
	m := ix.byTable[ch.table]
	if m == nil {
		m = make(map[meta.FragmentID]*Entry)
		ix.byTable[ch.table] = m
	}
	for _, e := range ch.added {
		m[e.Fragment] = e
	}
	for _, id := range ch.deleted {
		delete(m, id)
	}
}

// Lookup returns the indexed entry for a fragment, or nil when the
// fragment is still in the unindexed tail.
func (ix *Index) Lookup(table meta.TableID, id meta.FragmentID) *Entry {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.byTable[table][id]
}

// TailCount returns the number of changes awaiting indexing.
func (ix *Index) TailCount() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return len(ix.lag)
}

// Op is a comparison operator in a pruning predicate.
type Op int

// Predicate operators.
const (
	OpEq Op = iota
	OpLt
	OpLe
	OpGt
	OpGe
)

// String returns the SQL spelling of the operator.
func (o Op) String() string {
	switch o {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	}
	return "?"
}

// Predicate is a conjunct of the query's filter restricted to one
// column — the "derivative expressions on the column properties" the
// coordinator constructs from the filter (§7.2).
type Predicate struct {
	Column string
	Op     Op
	Value  schema.Value
}

// CanMatch reports whether a fragment with properties e may contain rows
// satisfying ALL predicates. It must never report false for a fragment
// that holds a matching row (pruning soundness); reporting true for one
// that does not merely costs a scan.
func CanMatch(e *Entry, s *schema.Schema, preds []Predicate) bool {
	if e == nil {
		return true
	}
	for _, p := range preds {
		if !predicateCanMatch(e, s, p) {
			return false
		}
	}
	return true
}

func predicateCanMatch(e *Entry, s *schema.Schema, p Predicate) bool {
	// Partition column: compare against the fragment's partition set.
	if s.PartitionField != "" && p.Column == s.PartitionField && len(e.PartitionSet) > 0 {
		if !partitionCanMatch(e.PartitionSet, p) {
			return false
		}
	}
	// Clustering columns: range check on the leading column, bloom for
	// equality on any clustering column.
	for ci, col := range s.ClusterBy {
		if p.Column != col {
			continue
		}
		if ci == 0 && len(e.ClusterMin) > 0 && !e.ClusterMin[0].IsNull() {
			if !rangeCanMatch(e.ClusterMin[0], e.ClusterMax[0], p) {
				return false
			}
		}
		if p.Op == OpEq && e.Bloom != nil && !e.Bloom.ContainsString(p.Value.Key()) {
			return false
		}
	}
	return true
}

// partitionCanMatch checks a timestamp/date predicate against the
// fragment's partition-day set.
func partitionCanMatch(partitions []int64, p Predicate) bool {
	day, ok := dayOf(p.Value)
	if !ok {
		return true
	}
	for _, d := range partitions {
		switch p.Op {
		case OpEq:
			if d == day {
				return true
			}
		case OpLt:
			// Partition d contains timestamps < v if d <= day: a
			// timestamp earlier in the same day still satisfies <.
			if d <= day {
				return true
			}
		case OpLe:
			if d <= day {
				return true
			}
		case OpGt, OpGe:
			if d >= day {
				return true
			}
		}
	}
	return false
}

func dayOf(v schema.Value) (int64, bool) {
	switch v.Kind() {
	case schema.KindDate:
		return v.AsDateDays(), true
	case schema.KindTimestamp:
		ns := v.AsInt64()
		day := ns / 86400e9
		if ns < 0 && ns%86400e9 != 0 {
			day--
		}
		return day, true
	}
	return 0, false
}

// rangeCanMatch checks a scalar predicate against a [min, max] range.
func rangeCanMatch(min, max schema.Value, p Predicate) bool {
	if p.Value.IsNull() || p.Value.Kind() != min.Kind() {
		return true // incomparable: cannot prune
	}
	switch p.Op {
	case OpEq:
		return p.Value.Compare(min) >= 0 && p.Value.Compare(max) <= 0
	case OpLt:
		return min.Compare(p.Value) < 0
	case OpLe:
		return min.Compare(p.Value) <= 0
	case OpGt:
		return max.Compare(p.Value) > 0
	case OpGe:
		return max.Compare(p.Value) >= 0
	}
	return true
}

// Matches reports whether fragment f of table may hold a row matching
// preds, judged by its index entry or, while f is in the unindexed tail
// (or ix is nil), by its inline properties (§6.2).
func (ix *Index) Matches(table meta.TableID, f *meta.FragmentInfo, s *schema.Schema, preds []Predicate) bool {
	var e *Entry
	if ix != nil {
		e = ix.Lookup(table, f.ID)
	}
	if e == nil {
		e, _ = EntryFromFragment(f) // nil when unreadable: unprunable
	}
	return CanMatch(e, s, preds)
}
