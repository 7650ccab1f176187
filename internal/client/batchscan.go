package client

import (
	"context"
	"time"

	"vortex/internal/meta"
	"vortex/internal/ros"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/wire"
	"vortex/internal/workpool"
)

// ColBatch is one assignment's scan result — the only thing a leaf
// scan produces; the row API (Scan, ReadAll) is PosRows over it. It has
// one physical layout whatever the fragment's format: one vector per
// projected column plus, per physical row, the storage sequence, the
// change type and the value arity the row was written with. A ROS
// fragment contributes the read cache's encoded vectors (DICT, RLE,
// typed PLAIN — nested fields as PLAIN vectors of assembled values), a
// WOS file its transposed PLAIN columns of values; both are shared with
// the cache and read-only. Consumers address rows by physical index through a
// wire.Selection and use three operations: Narrow a selection by a
// predicate, walk selected rows with a Cursor, and emit selected rows
// as Vectors.
type ColBatch struct {
	// FragID identifies the source fragment.
	FragID meta.FragmentID
	// NumRows is the physical row count selections index into.
	NumRows int
	// Sel selects the visible physical rows (snapshot bound, stream
	// visibility and deletion masks applied); nil selects all. Every
	// selection a consumer derives starts here.
	Sel wire.Selection
	// ColIdx is the top-level field index of each projected column, in
	// the order Vectors returns them.
	ColIdx []int
	// Cache is how the read cache served this scan: exactly one of Hits
	// and Misses is 1 (both 0 for live files, which bypass the cache),
	// BytesSaved is the RAM hit's credit, and DiskHits/DiskMisses are set
	// when this scan itself went to the disk tier rather than sharing
	// another caller's fetch. Summing the batches of a query gives its
	// exact cache usage however many queries share the client.
	Cache CacheStats

	sc      *schema.Schema
	cols    []wire.Vector // one per ColIdx entry
	seqs    []int64       // per physical row
	changes []byte        // per physical row
	// arity is the written value arity per physical row; nil when every
	// row has fullArity values.
	arity     []int32
	fullArity int

	// wos locates physical rows in their stream (PosRows); nil for ROS.
	wos *wosPlacement

	identity *[3]wire.Vector // IdentityVectors memo
}

// wosPlacement is what PosRows needs to turn a WOS batch's physical
// index back into row provenance.
type wosPlacement struct {
	blocks         []wosBlock
	fragStartRow   int64 // streamlet-local offset of the fragment's first row
	streamletStart int64 // stream offset of the streamlet's first row
	live           bool
	streamlet      meta.StreamletID
	stream         meta.StreamID
}

// NumVisible returns the number of mask-visible rows.
func (b *ColBatch) NumVisible() int { return b.Sel.Count(b.NumRows) }

// Seq returns the storage sequence of physical row i.
func (b *ColBatch) Seq(i int32) int64 { return b.seqs[i] }

// RowMeta returns the storage sequence and change type of every
// physical row. The slices are shared with the read cache: read-only.
func (b *ColBatch) RowMeta() (seqs []int64, changes []byte) { return b.seqs, b.changes }

// arityOf returns how many leading fields physical row i was written
// with, never more than the schema the batch is read under.
func (b *ColBatch) arityOf(i int32) int {
	if b.arity == nil {
		return b.fullArity
	}
	return min(int(b.arity[i]), len(b.sc.Fields))
}

// Conjunct is one AND-term of a predicate handed to Narrow.
type Conjunct struct {
	// Field is the top-level field index when the term reads exactly
	// that one flat column, else -1.
	Field int
	// Keep decides one row. A single-field term may be handed a row in
	// which only Values[Field] is populated.
	Keep func(schema.Row) (bool, error)
}

// Narrow returns the rows of sel that satisfy every term. A
// single-field term is decided on that column's vector alone — once per
// dictionary entry or run where the vector is encoded, and the rows
// that kills are counted in PrunedByCode without materializing a value;
// the remaining terms are evaluated together in one cursor pass over
// the survivors.
func (b *ColBatch) Narrow(sel wire.Selection, terms []Conjunct) (wire.Selection, wire.FilterStats, error) {
	var fs wire.FilterStats
	var rest []Conjunct
	probe := schema.Row{Values: nullValues(len(b.sc.Fields))}
	for _, t := range terms {
		vec := b.vectorOf(t.Field)
		if vec == nil {
			rest = append(rest, t)
			continue
		}
		nsel, st, err := vec.Filter(sel, func(v schema.Value) (bool, error) {
			probe.Values[t.Field] = v
			return t.Keep(probe)
		})
		if err != nil {
			return nil, fs, err
		}
		sel = nsel
		fs.PrunedByCode += st.PrunedByCode
		fs.Evaluated += st.Evaluated
	}
	if len(rest) == 0 {
		return sel, fs, nil
	}
	out := make(wire.Selection, 0, sel.Count(b.NumRows))
rows:
	for cur := b.Cursor(sel); cur.Next(); {
		fs.Evaluated++
		row := cur.Row()
		for _, t := range rest {
			ok, err := t.Keep(row)
			if err != nil {
				return nil, fs, err
			}
			if !ok {
				continue rows
			}
		}
		out = append(out, cur.Index())
	}
	return out, fs, nil
}

func (b *ColBatch) vectorOf(field int) *wire.Vector {
	for k, fi := range b.ColIdx {
		if fi == field {
			return &b.cols[k]
		}
	}
	return nil
}

func nullValues(n int) []schema.Value {
	vals := make([]schema.Value, n)
	for i := range vals {
		vals[i] = schema.Null()
	}
	return vals
}

// cursorBlock is how many rows a RowCursor decodes at a time.
const cursorBlock = 64

// RowCursor walks the selected rows of a batch in order. It decodes
// them a block at a time, column by column, into reused scratch rows —
// a PLAIN or DICT column in one Vector.LoadValues loop per block, an RLE
// column by a run cursor that only moves forward — so no value is
// built through a call per row.
type RowCursor struct {
	b   *ColBatch
	sel wire.Selection
	n   int   // rows to visit
	k   int   // rows visited
	i   int32 // current physical row

	width    int            // values per scratch row: the schema's fields
	rows     []schema.Value // the block's scratch rows, back to back
	idx      wire.Selection // the block's physical rows
	at       int            // the current row's place in the block
	run      []int          // per column: current RLE run, -1 before the first
	runStart []int32        // per column: first physical row of the run after it
	held     []int          // per RLE column: the run every scratch row holds, or -1
}

// Cursor returns a cursor over sel (nil: every physical row),
// positioned before the first row.
func (b *ColBatch) Cursor(sel wire.Selection) *RowCursor {
	n := sel.Count(b.NumRows)
	c := &RowCursor{
		b: b, sel: sel, n: n,
		width:    len(b.sc.Fields),
		rows:     nullValues(min(n, cursorBlock) * len(b.sc.Fields)),
		run:      make([]int, len(b.cols)),
		runStart: make([]int32, len(b.cols)),
		held:     make([]int, len(b.cols)),
	}
	if sel == nil {
		c.idx = make(wire.Selection, 0, min(n, cursorBlock))
	}
	for k := range c.run {
		c.run[k], c.held[k] = -1, -1
	}
	return c
}

// Next advances to the next selected row; false once exhausted.
func (c *RowCursor) Next() bool {
	if c.k >= c.n {
		return false
	}
	if c.at++; c.at >= len(c.idx) {
		c.fill()
	}
	c.i = c.idx[c.at]
	c.k++
	return true
}

// fill decodes the block of selected rows that starts at the next one.
func (c *RowCursor) fill() {
	m := min(cursorBlock, c.n-c.k)
	if c.sel == nil {
		c.idx = c.idx[:m]
		for j := range c.idx {
			c.idx[j] = int32(c.k + j)
		}
	} else {
		c.idx = c.sel[c.k : c.k+m]
	}
	c.at = 0
	for k := range c.b.cols {
		v := &c.b.cols[k]
		dst := c.rows[c.b.ColIdx[k]:]
		if v.Enc != wire.BatchEncRLE {
			v.LoadValues(dst, c.width, c.idx)
			continue
		}
		// Selections ascend, so runs only move forward. A block that one
		// run covers is not rewritten when its rows hold that run already.
		c.advance(k, c.idx[0])
		if last := c.idx[len(c.idx)-1]; c.run[k]+1 == len(v.Runs) || last < c.runStart[k] {
			if c.run[k] >= 0 && c.held[k] != c.run[k] {
				for j := range c.idx {
					dst[j*c.width] = v.Runs[c.run[k]].Value
				}
				c.held[k] = c.run[k]
			}
			continue
		}
		c.held[k] = -1
		for j, i := range c.idx {
			c.advance(k, i)
			dst[j*c.width] = v.Runs[c.run[k]].Value
		}
	}
}

// advance moves RLE column k's run cursor to the run holding row i.
func (c *RowCursor) advance(k int, i int32) {
	runs := c.b.cols[k].Runs
	for c.run[k]+1 < len(runs) && i >= c.runStart[k] {
		c.run[k]++
		c.runStart[k] += runs[c.run[k]].Len
	}
}

// Index returns the current row's physical index.
func (c *RowCursor) Index() int32 { return c.i }

// Seq returns the current row's storage sequence.
func (c *RowCursor) Seq() int64 { return c.b.seqs[c.i] }

// Row returns the current row: projected fields hold their values, the
// rest NULL. It is valid only until the next call to Next (scratch rows
// are reused); use Retain to keep it. A row keeps the arity it was
// written with, which after schema evolution can be shorter than the
// schema.
func (c *RowCursor) Row() schema.Row {
	at := c.at * c.width
	arity := c.b.arityOf(c.i)
	return schema.Row{Values: c.rows[at : at+arity : at+arity], Change: schema.ChangeType(c.b.changes[c.i])}
}

// Retain returns the current row in a form that stays valid after Next.
func (c *RowCursor) Retain() schema.Row {
	row := c.Row()
	row.Values = append([]schema.Value(nil), row.Values...)
	return row
}

// PosRows materializes the batch's visible rows with the provenance DML
// needs, computed from each row's physical index.
func (b *ColBatch) PosRows() []PosRow {
	out := make([]PosRow, 0, b.NumVisible())
	// One slab backs every row's values.
	slab := make([]schema.Value, 0, cap(out)*len(b.sc.Fields))
	blk := 0 // WOS: block holding the current row; selections ascend
	for cur := b.Cursor(b.Sel); cur.Next(); {
		row := cur.Row()
		at := len(slab)
		slab = append(slab, row.Values...)
		row.Values = slab[at:len(slab):len(slab)]
		pr := PosRow{
			Stamped:      rowenc.Stamped{Row: row, Seq: cur.Seq()},
			FragID:       b.FragID,
			FragLocal:    int64(cur.Index()),
			StreamOffset: -1,
		}
		if w := b.wos; w != nil {
			for blk+1 < len(w.blocks) && cur.Index() >= w.blocks[blk+1].first {
				blk++
			}
			local := w.blocks[blk].StartRow + int64(cur.Index()-w.blocks[blk].first)
			pr.FragLocal = local - w.fragStartRow
			pr.StreamOffset = w.streamletStart + local
			pr.Live, pr.Streamlet, pr.Stream = w.live, w.streamlet, w.stream
		}
		out = append(out, pr)
	}
	return out
}

// Vectors returns one vector per projected column (named by schema
// field, ordered like ColIdx), covering every physical row, together
// with the selection that picks sel's rows out of them — ready for
// wire.EncodeVectors or Vector.Gather. The vectors are the cached ones:
// nothing is copied, whatever sel selects.
func (b *ColBatch) Vectors(sel wire.Selection) ([]wire.Vector, wire.Selection) {
	return b.cols, sel
}

// IdentityVectors returns, aligned with the vectors and selection
// Vectors returns for the same sel, the three unnamed row-identity
// columns: storage sequence (the batch's own sequences as a typed
// column, not copied), the value arity the row was written with, and
// change type.
func (b *ColBatch) IdentityVectors(sel wire.Selection) [3]wire.Vector {
	if b.identity == nil {
		arity := wire.ConstVector("", schema.Int64(int64(b.fullArity)), b.NumRows)
		if b.arity != nil {
			arity = runVector(b.NumRows, func(i int) int64 { return int64(b.arityOf(int32(i))) })
		}
		b.identity = &[3]wire.Vector{
			wire.IntVector("", schema.KindInt64, b.seqs),
			arity,
			runVector(b.NumRows, func(i int) int64 { return int64(b.changes[i]) }),
		}
	}
	return *b.identity
}

// runVector run-length encodes n small integers.
func runVector(n int, at func(i int) int64) wire.Vector {
	var runs []wire.Run
	for i := 0; i < n; i++ {
		v := at(i)
		if k := len(runs); k > 0 && runs[k-1].Value.AsInt64() == v {
			runs[k-1].Len++
			continue
		}
		runs = append(runs, wire.Run{Len: 1, Value: schema.Int64(v)})
	}
	return wire.RLEVector("", runs)
}

// ScanBatch reads one assignment. Immutable fragments come from the
// read cache (load); a live tail file is read and decoded afresh. Either
// way the scan itself is only a selection over the decoded columns:
// nothing is materialized per row.
func (c *Client) ScanBatch(ctx context.Context, plan *ScanPlan, a Assignment) (*ColBatch, error) {
	start := time.Now()
	var b *ColBatch
	if a.Live {
		d, fragStartRow, err := c.readLiveWOS(ctx, plan, a)
		if err != nil {
			return nil, err
		}
		b = wosBatch(plan, a, meta.FragmentIDFor(a.Frag.Streamlet, a.FragIndex), fragStartRow, d)
	} else {
		v, use, err := c.load(a)
		if err != nil {
			return nil, err
		}
		switch d := v.(type) {
		case *ros.Reader:
			if b, err = rosBatch(plan, a, d); err != nil {
				return nil, err
			}
		case *wosColumns:
			b = wosBatch(plan, a, a.Frag.ID, a.Frag.StartRow, d)
		}
		b.Cache = use
	}
	c.scanLatency.Record(time.Since(start))
	return b, nil
}

// ScanBatches scans the assignments on up to workers goroutines and
// returns their batches in assignment order. It hands out no assignment
// once one has failed or ctx is done, and returns the error of the first
// assignment, in order, that failed.
func (c *Client) ScanBatches(ctx context.Context, plan *ScanPlan, as []Assignment, workers int) ([]*ColBatch, error) {
	batches := make([]*ColBatch, len(as))
	err := workpool.Run(len(as), workers, func(_, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		var err error
		batches[i], err = c.ScanBatch(ctx, plan, as[i])
		return err
	})
	if err != nil {
		return nil, err
	}
	return batches, nil
}

// rosBatch is a cached ROS reader's projected vectors with the
// deletion mask as the selection.
func rosBatch(plan *ScanPlan, a Assignment, rd *ros.Reader) (*ColBatch, error) {
	vecs, idxs, _, err := rd.Vectors(plan.Schema, plan.Projection)
	if err != nil {
		return nil, err
	}
	b := &ColBatch{
		FragID:    a.Frag.ID,
		NumRows:   int(rd.RowCount()),
		ColIdx:    idxs,
		sc:        plan.Schema,
		cols:      vecs,
		seqs:      rd.Seqs(),
		changes:   rd.Changes(),
		fullArity: len(plan.Schema.Fields),
	}
	if !a.Mask.Empty() {
		sel := make(wire.Selection, 0, b.NumRows)
		for i := 0; i < b.NumRows; i++ {
			if !a.Mask.Deleted(int64(i)) {
				sel = append(sel, int32(i))
			}
		}
		b.Sel = sel
	}
	return b, nil
}

// wosBatch is a WOS file's decoded columns with the §7.1 snapshot
// bound, stream visibility and deletion masks as the selection.
// fragStartRow is the streamlet-local offset of the file's first row.
func wosBatch(plan *ScanPlan, a Assignment, fragID meta.FragmentID, fragStartRow int64, d *wosColumns) *ColBatch {
	b := &ColBatch{
		FragID:    fragID,
		NumRows:   d.n,
		sc:        plan.Schema,
		seqs:      d.seqs,
		changes:   d.changes,
		arity:     d.arity,
		fullArity: min(len(d.cols), len(plan.Schema.Fields)),
		wos: &wosPlacement{
			blocks:         d.blocks,
			fragStartRow:   fragStartRow,
			streamletStart: a.streamletStart(),
			live:           a.Live,
			streamlet:      a.Frag.Streamlet,
			stream:         a.Stream,
		},
	}
	for fi, f := range plan.Schema.Fields {
		if plan.Projection != nil && !plan.Projection[f.Name] {
			continue
		}
		b.ColIdx = append(b.ColIdx, fi)
		if fi < len(d.cols) {
			b.cols = append(b.cols, wire.PlainVector(f.Name, d.cols[fi]))
		} else {
			// Field added after every row of this file was written.
			b.cols = append(b.cols, wire.ConstVector(f.Name, schema.Null(), d.n))
		}
	}
	b.Sel = selectWOS(plan.SnapshotTS, a, b.wos, d)
	return b
}
