// Package query is the reproduction's Dremel stand-in (§3.1, §7): it
// executes the SQL subset against Vortex snapshots. A query plans a
// snapshot scan through the client library (the union of WOS and ROS),
// prunes fragments with Big Metadata column properties (§7.2), scans the
// survivors in parallel leaf shards, resolves `_CHANGE_TYPE` semantics
// for primary-key tables, and runs a two-stage (partial → final)
// aggregation — the leaf/aggregate DAG shape of Dremel. UPDATE and
// DELETE statements implement §7.3: deletion masks, streamlet-tail
// masks, reinserted rows and atomic commit.
package query

import (
	"context"
	"fmt"
	"runtime"
	"sort"

	"vortex/internal/bigmeta"
	"vortex/internal/client"
	"vortex/internal/meta"
	"vortex/internal/rpc"
	"vortex/internal/schema"
	"vortex/internal/sql"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// Config tunes the engine.
type Config struct {
	// Shards is the leaf-stage degree of parallelism (0 = NumCPU).
	Shards int
	// MaxMaskRanges triggers mask coalescing with reinserted rows when a
	// fragment's deletion mask would exceed this many ranges (§7.3).
	MaxMaskRanges int
}

// Engine executes queries against one region.
type Engine struct {
	c      *client.Client
	index  *bigmeta.Index
	net    rpc.Transport
	router client.Router
	cfg    Config
}

// New returns an Engine.
func New(c *client.Client, index *bigmeta.Index, net rpc.Transport, router client.Router, cfg Config) *Engine {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.NumCPU()
	}
	if cfg.MaxMaskRanges <= 0 {
		cfg.MaxMaskRanges = 16
	}
	return &Engine{c: c, index: index, net: net, router: router, cfg: cfg}
}

// ExecStats reports how a statement executed.
type ExecStats struct {
	AssignmentsTotal  int
	AssignmentsPruned int
	RowsScanned       int64
	RowsAffected      int64
	SnapshotTS        truetime.Timestamp
	// How the read cache served this query's leaf scans, summed from the
	// scans' own batches and so exact however many queries share the
	// client: every scanned assignment that is not a live tail file is
	// one hit or one miss (all zero when the client has no read cache).
	CacheHits       int64
	CacheMisses     int64
	CacheBytesSaved int64
	// The disk tier's part (see vortex.WithDiskCache): RAM misses this
	// query itself served from the on-disk middle tier, and those it
	// took on to Colossus; a scan that shared another caller's fetch
	// counts neither. All zero without a disk tier.
	DiskHits   int64
	DiskMisses int64
	// PrefetchFetched is the process-wide count of fragments the async
	// prefetcher warmed into the disk tier while this query's leaf stage
	// ran — a delta of a shared counter, so concurrent queries each see
	// the others' prefetches too.
	PrefetchFetched int64
	// RowsCodeSkipped counts rows the leaf eliminated in encoded space —
	// a predicate decided once per dictionary entry or RLE run killed
	// them without ever materializing a value. RowsDecoded counts the
	// rest: rows whose values were read by change resolution, a per-row
	// predicate, a join or the output. The two always sum to RowsScanned.
	RowsCodeSkipped int64
	RowsDecoded     int64
}

// add folds another scan's counters into s — the second side of a
// join, or one leaf stage's deltas. SnapshotTS is kept when already
// set: the first scan pins it.
func (s *ExecStats) add(o ExecStats) {
	s.AssignmentsTotal += o.AssignmentsTotal
	s.AssignmentsPruned += o.AssignmentsPruned
	s.RowsScanned += o.RowsScanned
	s.RowsAffected += o.RowsAffected
	if s.SnapshotTS == 0 {
		s.SnapshotTS = o.SnapshotTS
	}
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheBytesSaved += o.CacheBytesSaved
	s.DiskHits += o.DiskHits
	s.DiskMisses += o.DiskMisses
	s.PrefetchFetched += o.PrefetchFetched
	s.RowsCodeSkipped += o.RowsCodeSkipped
	s.RowsDecoded += o.RowsDecoded
}

// Result is a query result set. Batches is the native columnar form;
// Rows and Next are row adapters over the same data, materialized
// lazily. Results are not safe for concurrent use, and returned
// values/batches are read-only views (they may share memory with the
// read cache).
type Result struct {
	Columns []string
	Stats   ExecStats

	batches []*wire.RecordBatch
	rows    [][]schema.Value
}

// Batches returns the result as columnar record batches. A result
// produced row-wise (aggregates, ORDER BY, DML) is wrapped into a
// single batch on first call.
func (r *Result) Batches() []*wire.RecordBatch {
	if r.batches == nil && len(r.rows) > 0 {
		cols := make([]wire.BatchColumn, len(r.Columns))
		for j, name := range r.Columns {
			vals := make([]schema.Value, len(r.rows))
			for i, row := range r.rows {
				if j < len(row) {
					vals[i] = row[j]
				} else {
					vals[i] = schema.Null()
				}
			}
			cols[j] = wire.BatchColumn{Name: name, Values: vals}
		}
		r.batches = []*wire.RecordBatch{{NumRows: len(r.rows), Cols: cols}}
	}
	return r.batches
}

// Rows returns the result as rows, flattening the columnar form on
// first call.
func (r *Result) Rows() [][]schema.Value {
	if r.rows == nil && len(r.batches) > 0 {
		r.rows = make([][]schema.Value, 0, r.NumRows())
		for _, b := range r.batches {
			for i := 0; i < b.NumRows; i++ {
				row := make([]schema.Value, len(b.Cols))
				for j := range b.Cols {
					row[j] = b.Cols[j].Values[i]
				}
				r.rows = append(r.rows, row)
			}
		}
	}
	return r.rows
}

// NumRows returns the result's row count without materializing rows.
func (r *Result) NumRows() int {
	if r.rows != nil {
		return len(r.rows)
	}
	n := 0
	for _, b := range r.batches {
		n += b.NumRows
	}
	return n
}

// Query parses and executes one SQL statement at the current snapshot.
func (e *Engine) Query(ctx context.Context, sqlText string) (*Result, error) {
	return e.QueryAt(ctx, sqlText, 0)
}

// QueryAt executes at a specific snapshot timestamp (0 = now).
func (e *Engine) QueryAt(ctx context.Context, sqlText string, ts truetime.Timestamp) (*Result, error) {
	stmt, err := sql.Parse(sqlText)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sql.SelectStmt:
		return e.execSelect(ctx, st, ts)
	case *sql.UpdateStmt:
		return e.execUpdate(ctx, st)
	case *sql.DeleteStmt:
		return e.execDelete(ctx, st)
	}
	return nil, fmt.Errorf("query: unsupported statement %T", stmt)
}

// scanTableBatches plans, prunes and scans a table snapshot in
// parallel, returning one ColBatch per surviving assignment in
// assignment order, and folds the scan's counters into stats.
func (e *Engine) scanTableBatches(ctx context.Context, table meta.TableID, ts truetime.Timestamp, where sql.Expr, projection map[string]bool, stats *ExecStats) ([]*client.ColBatch, error) {
	plan, err := e.c.Plan(ctx, table, ts)
	if err != nil {
		return nil, err
	}
	plan.Projection = projection
	assignments := plan.Assignments
	scan := ExecStats{SnapshotTS: plan.SnapshotTS, AssignmentsTotal: len(assignments)}

	// Partition elimination (§7.2). Pruning is sound only when replacing
	// change types cannot hide per-key state in pruned fragments, so it
	// is applied to tables without a primary key.
	if where != nil && len(plan.Schema.PrimaryKey) == 0 {
		assignments, scan.AssignmentsPruned = PruneAssignments(e.index, table, plan.Schema, sql.ExtractPredicates(where), assignments)
	}

	// Leaf stage: parallel shard scans (the Dremel leaf dispatch, §3.1).
	// The prefetcher walks the surviving assignments ahead of the
	// scanners, warming the disk tier (no-op without one).
	prefetched := e.c.ReadCache().Stats().PrefetchFetched
	e.c.Prefetch(assignments)
	batches, err := e.c.ScanBatches(ctx, plan, assignments, e.cfg.Shards)
	if err != nil {
		return nil, err
	}
	scan.PrefetchFetched = e.c.ReadCache().Stats().PrefetchFetched - prefetched
	for _, b := range batches {
		scan.RowsScanned += int64(b.NumVisible())
		scan.CacheHits += b.Cache.Hits
		scan.CacheMisses += b.Cache.Misses
		scan.CacheBytesSaved += b.Cache.BytesSaved
		scan.DiskHits += b.Cache.DiskHits
		scan.DiskMisses += b.Cache.DiskMisses
	}
	// Every scanned row counts as decoded until a predicate proves it
	// was skipped in code space.
	scan.RowsDecoded = scan.RowsScanned
	stats.add(scan)
	return batches, nil
}

// PruneAssignments applies Big Metadata partition elimination (§7.2) to
// a scan plan's assignments: fragments whose index entry (or, fallback,
// inline fragment statistics) provably cannot match the predicates are
// dropped. Undiscovered live tails are unprunable and always kept. It
// returns the surviving assignments and the pruned count. Shared by the
// query engine's leaf stage and the read-session shard planner, so the
// two paths cannot drift. Callers are responsible for the soundness
// precondition: no pruning on primary-keyed tables.
func PruneAssignments(index *bigmeta.Index, table meta.TableID, sc *schema.Schema, preds []bigmeta.Predicate, assignments []client.Assignment) ([]client.Assignment, int) {
	if len(preds) == 0 {
		return assignments, 0
	}
	kept := assignments[:0:0]
	pruned := 0
	for _, a := range assignments {
		// An undiscovered tail (no fragment id yet) is unprunable.
		if a.Frag.ID != "" && !index.Matches(table, &a.Frag, sc, preds) {
			pruned++
			continue
		}
		kept = append(kept, a)
	}
	return kept, pruned
}

// projectionOf collects the top-level columns a SELECT touches, plus the
// primary key (needed for change resolution). SELECT * scans everything.
func projectionOf(st *sql.SelectStmt, sc *schema.Schema) map[string]bool {
	if st.Star {
		return nil
	}
	proj := map[string]bool{}
	var walk func(e sql.Expr)
	walk = func(e sql.Expr) {
		switch x := e.(type) {
		case *sql.ColumnRef:
			proj[x.Path[0]] = true
		case *sql.Binary:
			walk(x.L)
			walk(x.R)
		case *sql.Not:
			walk(x.E)
		case *sql.IsNull:
			walk(x.E)
		case *sql.Aggregate:
			if x.Arg != nil {
				walk(x.Arg)
			}
		case *sql.DateOf:
			walk(x.E)
		}
	}
	for _, it := range st.Items {
		walk(it.Expr)
	}
	if st.Where != nil {
		walk(st.Where)
	}
	for _, g := range st.GroupBy {
		proj[g.Path[0]] = true
	}
	for _, o := range st.OrderBy {
		proj[o.Column.Path[0]] = true
	}
	for _, pk := range sc.PrimaryKey {
		proj[pk] = true
	}
	return proj
}

func hasAggregates(st *sql.SelectStmt) bool {
	for _, it := range st.Items {
		if _, ok := it.Expr.(*sql.Aggregate); ok {
			return true
		}
	}
	return len(st.GroupBy) > 0
}

// execSelect runs a single-table SELECT: the leaf stage scans
// ColBatches, change resolution (primary-keyed tables) and then the
// predicate narrow each batch's selection, and output either streams
// straight out as record batches (flat projections) or feeds the
// aggregation/projection stages.
func (e *Engine) execSelect(ctx context.Context, st *sql.SelectStmt, ts truetime.Timestamp) (*Result, error) {
	if st.Join != nil {
		return e.execSelectJoin(ctx, st, ts)
	}
	sc, err := e.c.GetSchema(ctx, meta.TableID(st.Table))
	if err != nil {
		return nil, err
	}
	if err := sql.Resolve(st, sc); err != nil {
		return nil, err
	}
	res := &Result{}
	batches, err := e.scanTableBatches(ctx, meta.TableID(st.Table), ts, st.Where, projectionOf(st, sc), &res.Stats)
	if err != nil {
		return nil, err
	}
	resolveBatches(sc, batches)
	pred := CompileVecPredicate(st.Where)
	for _, b := range batches {
		sel, fs, err := pred.Apply(b)
		if err != nil {
			return nil, err
		}
		b.Sel = sel
		res.Stats.RowsCodeSkipped += fs.PrunedByCode
		res.Stats.RowsDecoded -= fs.PrunedByCode
	}

	if hasAggregates(st) {
		return e.aggregateBatches(st, batches, res)
	}
	if len(st.OrderBy) == 0 && directEmitOK(st) {
		return emitDirect(st, sc, batches, res)
	}
	// ORDER BY or computed items: materialize survivors for the
	// projection stage.
	return e.project(st, sc, rowsOf(batches), res)
}

// project emits plain (non-aggregate) select output.
func (e *Engine) project(st *sql.SelectStmt, sc *schema.Schema, rows []schema.Row, res *Result) (*Result, error) {
	if st.Star {
		for _, f := range sc.Fields {
			res.Columns = append(res.Columns, f.Name)
		}
	} else {
		for _, it := range st.Items {
			res.Columns = append(res.Columns, itemName(it))
		}
	}
	// ORDER BY before projection (keys may not be projected). Aliases of
	// plain column items order by the underlying column.
	aliasTo := map[string]*sql.ColumnRef{}
	for _, it := range st.Items {
		if ref, ok := it.Expr.(*sql.ColumnRef); ok && it.Alias != "" {
			aliasTo[it.Alias] = ref
		}
	}
	for i := range st.OrderBy {
		if st.OrderBy[i].Column.Leaf == nil {
			if ref, ok := aliasTo[st.OrderBy[i].Column.Name()]; ok {
				st.OrderBy[i].Column = ref
			} else {
				return nil, fmt.Errorf("query: cannot ORDER BY %q (alias of a non-column expression)", st.OrderBy[i].Column.Name())
			}
		}
	}
	if err := orderRows(st, rows); err != nil {
		return nil, err
	}
	for _, row := range rows {
		var out []schema.Value
		if st.Star {
			out = make([]schema.Value, len(sc.Fields))
			copy(out, row.Values)
			for i := len(row.Values); i < len(sc.Fields); i++ {
				out[i] = schema.Null()
			}
		} else {
			out = make([]schema.Value, len(st.Items))
			for i, it := range st.Items {
				v, err := sql.Eval(it.Expr, row)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
		}
		res.rows = append(res.rows, out)
		if st.Limit >= 0 && int64(len(res.rows)) >= st.Limit {
			break
		}
	}
	return res, nil
}

func itemName(it sql.SelectItem) string {
	if it.Alias != "" {
		return it.Alias
	}
	if ref, ok := it.Expr.(*sql.ColumnRef); ok {
		return ref.Name()
	}
	return "f0"
}

func orderRows(st *sql.SelectStmt, rows []schema.Row) error {
	if len(st.OrderBy) == 0 {
		return nil
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for _, o := range st.OrderBy {
			a := o.Column.FieldValue(rows[i])
			b := o.Column.FieldValue(rows[j])
			c := compareForOrder(a, b)
			if c != 0 {
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
		}
		return false
	})
	return nil
}

func compareForOrder(a, b schema.Value) int {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0
		case a.IsNull():
			return -1
		default:
			return 1
		}
	}
	if a.Kind() == b.Kind() && a.Kind().Comparable() {
		return a.Compare(b)
	}
	af, bf := a.AsFloat64(), b.AsFloat64()
	switch {
	case af < bf:
		return -1
	case af > bf:
		return 1
	}
	return 0
}
