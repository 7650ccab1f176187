package client

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/fragment"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
	"vortex/internal/wire"
)

// sealedPayloads seals each plaintext into a WOS data block whose header
// row count is the one its payload starts with (0 when it has none),
// starting at timestamp 100 and streamlet row 0.
func sealedPayloads(t testing.TB, plains ...[]byte) (*Client, []fragment.Block) {
	t.Helper()
	sealer := blockenc.NewSealer(blockenc.NewKeyring())
	var blocks []fragment.Block
	start := int64(0)
	for _, plain := range plains {
		sealed, err := sealer.Seal(plain, blockenc.Checksum(plain), blockenc.SystemKey)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := binary.Uvarint(plain)
		blocks = append(blocks, fragment.Block{
			Kind:      fragment.BlockData,
			Timestamp: truetime.Timestamp(100 + start),
			StartRow:  start,
			RowCount:  int64(n),
			Payload:   sealed,
		})
		start += int64(n)
	}
	return &Client{sealer: sealer}, blocks
}

// blockRows is a block payload as the Stream Server's check reads it —
// wire.DecodeBlock, every column — turned back into the rows appended,
// each as long as it was written.
func blockRows(plain []byte) ([]schema.Row, error) {
	var cols []*wire.ColumnBuilder
	changes, arity, err := wire.DecodeBlock(plain, nil, nil, func(_, rows int) *wire.ColumnBuilder {
		cols = append(cols, wire.NewColumnBuilder("", rows, len(plain)))
		return cols[len(cols)-1]
	})
	if err != nil {
		return nil, err
	}
	vecs := make([]wire.Vector, len(cols))
	for f, cb := range cols {
		vecs[f] = cb.Vector()
	}
	rows := make([]schema.Row, len(changes))
	for i := range rows {
		vals := make([]schema.Value, arity[i])
		for f := range vals {
			vals[f] = vecs[f].ValueAt(i)
		}
		rows[i] = schema.Row{Values: vals, Change: schema.ChangeType(changes[i])}
	}
	return rows, nil
}

// oracleWOS is a WOS file as rows: each block's rows transposed into one
// column of values per field, short rows padded with NULL.
type oracleWOS struct {
	cols    [][]schema.Value
	changes []byte
	seqs    []int64
	arity   []int32 // nil when every row has len(cols) values
}

// transposed is the oracle of a file whose blocks hold groups of rows.
func transposed(blocks []fragment.Block, groups [][]schema.Row) *oracleWOS {
	n, narrow, width := 0, 0, 0
	for _, rows := range groups {
		for _, r := range rows {
			if n == 0 || len(r.Values) < narrow {
				narrow = len(r.Values)
			}
			width = max(width, len(r.Values))
			n++
		}
	}
	o := &oracleWOS{cols: make([][]schema.Value, width), changes: make([]byte, n), seqs: make([]int64, n)}
	for f := range o.cols {
		o.cols[f] = make([]schema.Value, n)
	}
	if narrow != width {
		o.arity = make([]int32, n)
	}
	i := 0
	for bi, rows := range groups {
		for k, r := range rows {
			for f := range o.cols {
				o.cols[f][i] = schema.Null()
				if f < len(r.Values) {
					o.cols[f][i] = r.Values[f]
				}
			}
			o.changes[i] = byte(r.Change)
			o.seqs[i] = int64(blocks[bi].Timestamp) + int64(k)
			if o.arity != nil {
				o.arity[i] = int32(len(r.Values))
			}
			i++
		}
	}
	return o
}

// serverOracle opens every block and reads it as the Stream Server's
// check does: the oracle of what the reader must decode from a file
// whose every block the server accepted.
func serverOracle(c *Client, blocks []fragment.Block) (*oracleWOS, error) {
	var groups [][]schema.Row
	for _, b := range blocks {
		plain, err := c.sealer.Open(b.Payload)
		if err != nil {
			return nil, err
		}
		rows, err := blockRows(plain)
		if err != nil {
			return nil, err
		}
		groups = append(groups, rows)
	}
	return transposed(blocks, groups), nil
}

// sameWOS reports how d differs from the oracle, if it does: every cell
// through ValueAt, compared by its encoding, and every row's change,
// seq and arity.
func sameWOS(d *wosColumns, o *oracleWOS) error {
	if d.n != len(o.seqs) || len(d.cols) != len(o.cols) {
		return fmt.Errorf("%d rows of %d fields, oracle %d rows of %d fields", d.n, len(d.cols), len(o.seqs), len(o.cols))
	}
	if !bytes.Equal(d.changes, o.changes) || fmt.Sprint(d.seqs) != fmt.Sprint(o.seqs) || fmt.Sprint(d.arity) != fmt.Sprint(o.arity) {
		return fmt.Errorf("changes %v seqs %v arity %v, oracle %v %v %v", d.changes, d.seqs, d.arity, o.changes, o.seqs, o.arity)
	}
	for f, col := range o.cols {
		if got := d.cols[f].Len(); got != d.n {
			return fmt.Errorf("field %d holds %d rows of %d", f, got, d.n)
		}
		for i, want := range col {
			got := d.cols[f].ValueAt(i)
			if !bytes.Equal(rowenc.AppendValue(nil, got), rowenc.AppendValue(nil, want)) {
				return fmt.Errorf("field %d row %d = %v, oracle %v", f, i, got, want)
			}
		}
	}
	return nil
}

// wosSeedRows are files of one or two blocks, each block the rows of
// one append; a nil second block means a file of one.
func wosSeedRows() [][2][]schema.Row {
	i, s := schema.Int64, schema.String
	row := func(vals ...schema.Value) schema.Row { return schema.NewRow(vals...) }
	change := func(c schema.ChangeType, r schema.Row) schema.Row { r.Change = c; return r }
	narrow := []schema.Row{row(i(1), s("a")), row(i(2), s("b"))}
	wide := []schema.Row{row(i(3), s("c"), schema.Float64(0.5), schema.Bool(true)), change(schema.ChangeDelete, row(i(4), s("d"), schema.Null(), schema.Bool(false)))}
	return [][2][]schema.Row{
		{narrow, wide}, // a field first seen mid-file
		{wide, narrow}, // fields a later block's rows lack
		{{row(i(1), schema.Null()), row(i(2), schema.Null())}, nil}, // an all-NULL field
		{{row(i(1)), row(schema.Null()), row(s("x"))}, {row(i(5))}}, // a kind change mid-column
		{{
			row(schema.Bytes([]byte{0, 1, 2}), schema.List(i(1), i(2)), schema.Struct(s("k"), schema.Null())),
			row(schema.Bytes(nil), schema.List(), schema.Struct(s("j"), i(9))),
		}, nil}, // BYTES and nested fields
		{{row(s("a long enough string"))}, nil}, // cut short below
		{narrow, nil},                           // trailing bytes below
		{{}, {row()}},                           // an empty block, then a row of no values
		{raggedRows(), nil},                     // rows of three arities and every change type in one block
	}
}

// raggedRows is one append of rows written under three schema versions,
// of every change type: the block golden's batch too.
func raggedRows() []schema.Row {
	i, s := schema.Int64, schema.String
	rows := []schema.Row{
		schema.NewRow(i(1), s("a"), schema.Float64(1.5)),
		schema.NewRow(i(2)),
		schema.NewRow(i(4), schema.Null(), schema.Float64(-2)),
		schema.NewRow(i(3), s("c")),
	}
	rows[1].Change = schema.ChangeUpsert
	rows[2].Change = schema.ChangeDelete
	return rows
}

// wosSeedBlocks are the fuzz target's seeds: wosSeedRows encoded, the
// sixth cut short and the seventh given a trailing byte, then hostile
// payloads.
func wosSeedBlocks() [][2][]byte {
	var out [][2][]byte
	for k, file := range wosSeedRows() {
		var s [2][]byte
		for b, rows := range file {
			if b == 0 || rows != nil {
				s[b] = wire.AppendBlock(nil, rows)
			}
		}
		switch k {
		case 5:
			s[0] = s[0][:len(s[0])-3]
		case 6:
			s[0] = append(s[0], 0)
		}
		out = append(out, s)
	}
	rows := raggedRows()
	rows[3].Values = append(rows[3].Values, schema.Bool(true))
	short := wire.AppendBlock(nil, rows)
	short[1+3] = 2 << 2 // row 3's header: arity 2, leaving its value in field 2
	return append(out,
		[2][]byte{short, nil},
		[2][]byte{{1, 1 << 2, 1, 7, 1, rowenc.TagNull}, nil}, // a column of an unknown encoding
	)
}

// FuzzDecodeWOSBlocks holds the reader's decode to the Stream Server's
// check, wire.DecodeBlock, on a file of one or two blocks. Each block's
// header counts the rows its payload starts with, so what is refused is
// the payload's doing. A file whose every block the check accepts the
// reader decodes, agreeing with the check on every cell, change, seq
// and arity; one it refuses, the reader's full decode refuses too. The
// rows the check reads re-encode to a block it reads back as the same
// rows. The second block is opened into the buffer the first was, so a
// value the builders failed to copy out would show here as a changed
// cell. The file decoded for the fields of mask (bit f: field f) agrees
// with the full decode on every row and every decoded field, and holds
// nothing of the others.
func FuzzDecodeWOSBlocks(f *testing.F) {
	for _, s := range wosSeedBlocks() {
		for _, mask := range []uint64{1<<64 - 1, 0, 0b101} {
			f.Add(s[0], s[1], s[1] != nil, mask)
		}
	}
	f.Fuzz(func(t *testing.T, first, second []byte, two bool, mask uint64) {
		plains := [][]byte{first}
		if two {
			plains = append(plains, second)
		}
		for _, plain := range plains {
			rows, err := blockRows(plain)
			if err != nil {
				continue
			}
			again, err := blockRows(wire.AppendBlock(nil, rows))
			if err != nil || fmt.Sprint(again) != fmt.Sprint(rows) {
				t.Fatalf("rows %v re-encoded read back as %v, err %v", rows, again, err)
			}
		}
		c, blocks := sealedPayloads(t, plains...)
		got, err := c.decodeBlocks(blocks, nil)
		want, wantErr := serverOracle(c, blocks)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeBlocks err = %v, Stream Server check err = %v", err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, wire.ErrBlockCorrupt) {
				t.Fatalf("err = %v, want wire.ErrBlockCorrupt", err)
			}
			return
		}
		if err := sameWOS(got, want); err != nil {
			t.Fatal(err)
		}
		projected, err := c.decodeBlocks(blocks, fieldSet{mask})
		if err != nil {
			t.Fatalf("decodeBlocks for fields %b: %v", mask, err)
		}
		if err := sameProjection(projected, got, fieldSet{mask}); err != nil {
			t.Fatalf("fields %b: %v", mask, err)
		}
	})
}

// TestDecodeWOSReturnsTheAppendedRows: each well-formed seed file, its
// blocks encoded by wire.AppendBlock, decodes to the rows appended, with
// their change types and arities.
func TestDecodeWOSReturnsTheAppendedRows(t *testing.T) {
	for k, file := range wosSeedRows() {
		groups := [][]schema.Row{file[0]}
		if file[1] != nil {
			groups = append(groups, file[1])
		}
		var plains [][]byte
		for _, rows := range groups {
			plains = append(plains, wire.AppendBlock(nil, rows))
		}
		c, blocks := sealedPayloads(t, plains...)
		d, err := c.decodeBlocks(blocks, nil)
		if err != nil {
			t.Fatalf("file %d: %v", k, err)
		}
		if err := sameWOS(d, transposed(blocks, groups)); err != nil {
			t.Fatalf("file %d: %v", k, err)
		}
	}
}

// sameProjection reports how p, decoded for fields, differs from the
// full decode d, if it does: every row's change, seq, arity and block,
// every cell of a decoded field, and an empty column for every other.
func sameProjection(p, d *wosColumns, fields fieldSet) error {
	if p.n != d.n || len(p.cols) != len(d.cols) || fmt.Sprint(p.blocks) != fmt.Sprint(d.blocks) {
		return fmt.Errorf("%d rows of %d fields in blocks %v, full decode %d rows of %d fields in %v", p.n, len(p.cols), p.blocks, d.n, len(d.cols), d.blocks)
	}
	if !bytes.Equal(p.changes, d.changes) || fmt.Sprint(p.seqs) != fmt.Sprint(d.seqs) || fmt.Sprint(p.arity) != fmt.Sprint(d.arity) {
		return fmt.Errorf("changes %v seqs %v arity %v, full decode %v %v %v", p.changes, p.seqs, p.arity, d.changes, d.seqs, d.arity)
	}
	for f := range d.cols {
		if !fields.has(f) {
			if p.cols[f].Len() != 0 || p.fields.has(f) {
				return fmt.Errorf("field %d, not asked for, holds %d rows (held %v)", f, p.cols[f].Len(), p.fields)
			}
			continue
		}
		if !p.fields.has(f) || p.cols[f].Len() != d.n {
			return fmt.Errorf("field %d holds %d rows of %d (held %v)", f, p.cols[f].Len(), d.n, p.fields)
		}
		for i := 0; i < d.n; i++ {
			if got, want := p.cols[f].ValueAt(i), d.cols[f].ValueAt(i); !bytes.Equal(rowenc.AppendValue(nil, got), rowenc.AppendValue(nil, want)) {
				return fmt.Errorf("field %d row %d = %v, full decode %v", f, i, got, want)
			}
		}
	}
	return nil
}

// TestDecodeWOSSeedsTypeFlatFields: a field of one scalar kind comes
// out typed, NULL where a row is too short to carry it, while a
// mixed-kind, BYTES or nested one keeps Values. (FuzzDecodeWOSBlocks
// holds every seed to the Stream Server's check.)
func TestDecodeWOSSeedsTypeFlatFields(t *testing.T) {
	c, blocks := sealedPayloads(t, wosSeedBlocks()[0][:]...)
	d, err := c.decodeBlocks(blocks, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []schema.Kind
	for _, col := range d.cols {
		kinds = append(kinds, col.Kind)
	}
	want := []schema.Kind{schema.KindInt64, schema.KindString, schema.KindFloat64, schema.KindBool}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("field kinds %v, want %v", kinds, want)
	}
	if d.cols[2].Valid.Has(0) || d.cols[2].Valid.Has(1) || !d.cols[2].Valid.Has(2) || d.cols[2].Valid.Has(3) {
		t.Fatalf("float field validity %v, want only row 2", d.cols[2].Valid)
	}
	c, blocks = sealedPayloads(t, wosSeedBlocks()[3][:]...)
	if d, err = c.decodeBlocks(blocks, nil); err != nil {
		t.Fatal(err)
	}
	if d.cols[0].Typed() || len(d.cols[0].Values) != 4 {
		t.Fatalf("mixed-kind field typed %v with %d values, want 4 values", d.cols[0].Kind, len(d.cols[0].Values))
	}
	c, blocks = sealedPayloads(t, wosSeedBlocks()[4][0])
	if d, err = c.decodeBlocks(blocks, nil); err != nil {
		t.Fatal(err)
	}
	for f, col := range d.cols {
		if col.Typed() || len(col.Values) != 2 {
			t.Fatalf("BYTES or nested field %d typed %v with %d values, want 2 values", f, col.Kind, len(col.Values))
		}
	}
}

// TestDecodeBlocksRefusesHeaderRowCountMismatch: a DATA block's header
// row count sizes the decoder's columns, and the SMS sums it when it
// reconciles, but the block CRC covers only the payload. A header that
// disagrees with its payload's rows is refused as corrupt, in either
// direction, as is one no block of its size could hold.
func TestDecodeBlocksRefusesHeaderRowCountMismatch(t *testing.T) {
	payload := wire.AppendBlock(nil, []schema.Row{
		schema.NewRow(schema.Int64(1)),
		schema.NewRow(schema.Int64(2)),
	})
	for _, header := range []int64{3, 1, -1, 1 << 40} {
		c, blocks := sealedPayloads(t, payload)
		blocks[0].RowCount = header
		d, err := c.decodeBlocks(blocks, nil)
		if !errors.Is(err, wire.ErrBlockCorrupt) {
			n := -1
			if d != nil {
				n = d.n
			}
			t.Fatalf("header says %d rows over a 2-row payload: %d rows, err %v; want wire.ErrBlockCorrupt", header, n, err)
		}
	}
}
