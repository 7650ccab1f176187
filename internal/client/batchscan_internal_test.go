package client

import (
	"fmt"
	"testing"

	"vortex/internal/dml"
	"vortex/internal/fragment"
	"vortex/internal/meta"
	"vortex/internal/ros"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

func cursorSchema() *schema.Schema {
	return &schema.Schema{PrimaryKey: []string{"k"}, Fields: []*schema.Field{
		{Name: "k", Kind: schema.KindString, Mode: schema.Required},
		{Name: "skipped", Kind: schema.KindInt64, Mode: schema.Nullable}, // not projected
		{Name: "g", Kind: schema.KindInt64, Mode: schema.Nullable},
		{Name: "added", Kind: schema.KindString, Mode: schema.Nullable}, // schema evolution: absent from the file
	}}
}

// encodedTestBatch is nine rows as a ROS reader hands them over: k DICT, g RLE
// with runs of 3, 2 and 4, and `added` a CONST NULL vector standing in
// for a column the file predates.
func encodedTestBatch() *ColBatch {
	dict := []schema.Value{schema.String("x"), schema.String("y"), schema.String("z")}
	return &ColBatch{
		FragID:  "frag-1",
		NumRows: 9,
		ColIdx:  []int{0, 2, 3},
		sc:      cursorSchema(),
		cols: []wire.Vector{
			wire.DictVector("k", dict, []uint32{0, 1, 2, 0, 1, 2, 0, 1, 2}),
			wire.RLEVector("g", []wire.Run{
				{Len: 3, Value: schema.Int64(10)},
				{Len: 2, Value: schema.Int64(20)},
				{Len: 4, Value: schema.Int64(30)},
			}),
			wire.ConstVector("added", schema.Null(), 9),
		},
		seqs:      []int64{100, 101, 102, 103, 104, 105, 106, 107, 108},
		changes:   []byte{0, 0, 1, 0, 0, 2, 0, 0, 1},
		fullArity: 4,
	}
}

// TestCursorEncodedSparseSelection walks a sparse selection that skips
// whole runs and lands on both sides of every run boundary: the run
// cursors must agree with Vector.ValueAt for every visited row.
func TestCursorEncodedSparseSelection(t *testing.T) {
	b := encodedTestBatch()
	sel := wire.Selection{0, 2, 3, 5, 8}
	var retained []schema.Row
	k := 0
	for cur := b.Cursor(sel); cur.Next(); k++ {
		i := sel[k]
		if cur.Index() != i || cur.Seq() != b.seqs[i] {
			t.Fatalf("row %d: index %d seq %d, want %d/%d", k, cur.Index(), cur.Seq(), i, b.seqs[i])
		}
		row := cur.Row()
		if len(row.Values) != 4 || row.Change != schema.ChangeType(b.changes[i]) {
			t.Fatalf("row %d: arity %d change %v", k, len(row.Values), row.Change)
		}
		for c, fi := range b.ColIdx {
			if got, want := row.Values[fi].String(), b.cols[c].ValueAt(int(i)).String(); got != want {
				t.Fatalf("row %d field %d = %s, want %s", i, fi, got, want)
			}
		}
		if !row.Values[1].IsNull() || !row.Values[3].IsNull() {
			t.Fatalf("row %d: unprojected/evolved fields not NULL: %v", i, row.Values)
		}
		retained = append(retained, cur.Retain())
	}
	if k != len(sel) {
		t.Fatalf("cursor visited %d rows, want %d", k, len(sel))
	}
	// Retained rows must not alias the scratch row.
	want := []string{`["x" NULL 10 NULL]`, `["z" NULL 10 NULL]`, `["x" NULL 20 NULL]`, `["z" NULL 30 NULL]`, `["z" NULL 30 NULL]`}
	for i, r := range retained {
		if got := fmt.Sprint(r.Values); got != want[i] {
			t.Fatalf("retained row %d = %s, want %s", i, got, want[i])
		}
	}

	// A nil selection visits every physical row.
	n := 0
	for cur := b.Cursor(nil); cur.Next(); n++ {
		if got, want := cur.Row().Values[2].String(), b.cols[1].ValueAt(n).String(); got != want {
			t.Fatalf("full walk row %d g = %s, want %s", n, got, want)
		}
	}
	if n != 9 {
		t.Fatalf("full walk visited %d rows", n)
	}
}

// sealedBlocks seals rows into WOS data blocks the way a Stream Server
// writes them, one block per group, returning the client that can open
// them.
func sealedBlocks(t *testing.T, groups ...[]schema.Row) (*Client, []fragment.Block) {
	t.Helper()
	var plains [][]byte
	for _, rows := range groups {
		plains = append(plains, wire.AppendBlock(nil, rows))
	}
	return sealedPayloads(t, plains...)
}

// wosTestRows is the logical data of encodedTestBatch as a writer
// appended it: full rows, except that row 4 was written before `g` and
// `added` existed and so carries only two values.
func wosTestRows() []schema.Row {
	var rows []schema.Row
	for cur := encodedTestBatch().Cursor(nil); cur.Next(); {
		row := cur.Retain()
		if cur.Index() == 4 {
			row.Values = row.Values[:2]
		}
		rows = append(rows, row)
	}
	return rows
}

// wosTestBatch decodes wosTestRows from two sealed blocks (rows 0-4 at
// timestamp 100, rows 5-8 at 105 — the same seqs as encodedTestBatch)
// and scans them at snapshot under the same projection.
func wosTestBatch(t *testing.T, snapshot truetime.Timestamp, a Assignment) *ColBatch {
	t.Helper()
	rows := wosTestRows()
	c, blocks := sealedBlocks(t, rows[:5], rows[5:])
	d, err := c.decodeBlocks(blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &ScanPlan{
		SnapshotTS: snapshot,
		Schema:     cursorSchema(),
		Projection: map[string]bool{"k": true, "g": true, "added": true},
	}
	return wosBatch(plan, a, "frag-1", 0, d)
}

// TestShortArityKeepsArity: a WOS row written before a schema change
// stays short under the cursor and in PosRows, its missing fields read
// NULL in the column vectors, and the identity columns record its true
// arity — which is what lets a read session hand it back short
// (readsession.TestSessionShortArityRoundTrip).
func TestShortArityKeepsArity(t *testing.T) {
	b := wosTestBatch(t, 1000, Assignment{})
	if b.Sel != nil || b.NumRows != 9 {
		t.Fatalf("full-visibility scan: Sel %v over %d rows, want nil over 9", b.Sel, b.NumRows)
	}
	sel := wire.Selection{3, 4, 8}
	var arities []int
	for cur := b.Cursor(sel); cur.Next(); {
		arities = append(arities, len(cur.Row().Values))
		if cur.Seq() != 100+int64(cur.Index()) {
			t.Fatalf("row %d seq %d", cur.Index(), cur.Seq())
		}
	}
	if fmt.Sprint(arities) != "[4 2 4]" {
		t.Fatalf("cursor arities = %v, want [4 2 4]", arities)
	}
	for i, pr := range b.PosRows() {
		want := 4
		if i == 4 {
			want = 2
		}
		if len(pr.Stamped.Row.Values) != want || pr.FragLocal != int64(i) || pr.StreamOffset != int64(i) || pr.Stamped.Seq != 100+int64(i) {
			t.Fatalf("PosRows[%d] = %+v, want arity %d at offset %d", i, pr, want, i)
		}
	}

	cols, vsel := b.Vectors(sel)
	if len(cols) != 3 {
		t.Fatalf("emitted %d vectors, want 3", len(cols))
	}
	for k, want := range []string{`["x" "y" "z"]`, `[20 NULL 30]`, `[NULL NULL NULL]`} {
		if cols[k].Enc != wire.BatchEncPlain || cols[k].Name != b.sc.Fields[b.ColIdx[k]].Name {
			t.Fatalf("vector %d: enc %d name %q", k, cols[k].Enc, cols[k].Name)
		}
		if got := fmt.Sprint(cols[k].Gather(vsel)); got != want {
			t.Fatalf("vector %q = %s, want %s", cols[k].Name, got, want)
		}
	}
	id := b.IdentityVectors(sel)
	for k, want := range []string{"[103 104 108]", "[4 2 4]", "[0 0 1]"} {
		if got := fmt.Sprint(id[k].Gather(vsel)); got != want {
			t.Fatalf("identity %d = %s, want %s", k, got, want)
		}
	}
}

// TestNarrowFormatsAgree: Narrow on a WOS batch keeps the same rows as
// Narrow on the ROS conversion of the same rows; only the ROS one
// decides the single-column term in code space, and the frames both
// emit decode to the same rows.
func TestNarrowFormatsAgree(t *testing.T) {
	sc := cursorSchema()
	w := ros.NewWriter(sc)
	for i, row := range wosTestRows() {
		if err := w.Add(row, 100+int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	file, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rd, err := ros.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	plan := &ScanPlan{Schema: sc, Projection: map[string]bool{"k": true, "g": true, "added": true}}
	rosB, err := rosBatch(plan, Assignment{}, rd)
	if err != nil {
		t.Fatal(err)
	}
	wosB := wosTestBatch(t, 1000, Assignment{})

	terms := []Conjunct{
		{Field: 0, Keep: func(r schema.Row) (bool, error) { return r.Values[0].AsString() != "y", nil }},
		{Field: -1, Keep: func(r schema.Row) (bool, error) {
			return len(r.Values) > 2 && r.Values[2].AsInt64() >= 20 && r.Values[0].AsString() == "z", nil
		}},
	}
	rsel, rfs, err := rosB.Narrow(rosB.Sel, terms)
	if err != nil {
		t.Fatal(err)
	}
	wsel, wfs, err := wosB.Narrow(wosB.Sel, terms)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rsel) != "[5 8]" || fmt.Sprint(wsel) != "[5 8]" {
		t.Fatalf("ROS kept %v, WOS kept %v, want [5 8]", rsel, wsel)
	}
	if rfs.PrunedByCode != 3 || wfs.PrunedByCode != 0 {
		t.Fatalf("code-space pruning: ROS %+v, WOS %+v", rfs, wfs)
	}
	var frames [2]string
	for i, b := range []*ColBatch{rosB, wosB} {
		cols, vsel := b.Vectors(rsel)
		id := b.IdentityVectors(rsel)
		rb, _, err := wire.DecodeRecordBatch(wire.EncodeVectors(append(id[:], cols...), vsel))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rb.Cols {
			frames[i] += fmt.Sprint(c.Values)
		}
	}
	if frames[0] != frames[1] {
		t.Fatalf("formats encode different frames:\nROS: %s\nWOS: %s", frames[0], frames[1])
	}
}

// TestWarmSealedWOSSnapshotInsideFragment: a sealed WOS entry is cached
// once and serves every snapshot. A scan at a snapshot inside the
// fragment returns exactly the rows at or before it — the two-level
// bound: a row past the snapshot ends only its block, a block past it
// ends the fragment — and a snapshot covering every row selects all
// without building a selection.
func TestWarmSealedWOSSnapshotInsideFragment(t *testing.T) {
	for _, tc := range []struct {
		snapshot truetime.Timestamp
		want     string
	}{
		{99, "[]"},
		{100, "[0]"},
		{103, "[0 1 2 3]"},
		{104, "[0 1 2 3 4]"}, // first block complete, second not started
		{106, "[0 1 2 3 4 5 6]"},
		{107, "[0 1 2 3 4 5 6 7]"},
		{108, "<nil>"},
		{120, "<nil>"}, // between the newest row and the sealed boundary
	} {
		b := wosTestBatch(t, tc.snapshot, Assignment{})
		got := "<nil>"
		if b.Sel != nil {
			got = fmt.Sprint(b.Sel)
		}
		if got != tc.want {
			t.Errorf("snapshot %d selected %s, want %s", tc.snapshot, got, tc.want)
		}
		for _, pr := range b.PosRows() {
			if truetime.Timestamp(pr.Stamped.Seq) > tc.snapshot {
				t.Errorf("snapshot %d returned row with seq %d", tc.snapshot, pr.Stamped.Seq)
			}
		}
	}

	// Masks and stream visibility narrow the same selection.
	mask := &dml.Mask{}
	mask.Add(1, 3)
	tail := &dml.Mask{}
	tail.Add(7, 8)
	b := wosTestBatch(t, 1000, Assignment{
		Mask:     mask,
		TailMask: tail,
		Vis:      wire.StreamVisibility{Type: meta.Buffered, FlushedOffset: 8},
	})
	if got := fmt.Sprint(b.Sel); got != "[0 3 4 5 6]" {
		t.Fatalf("masked scan selected %s, want [0 3 4 5 6]", got)
	}
}
