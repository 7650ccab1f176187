package client

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/fragment"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/truetime"
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
		n, _ := rowenc.RowCount(plain)
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

// oracleWOS is a WOS file as the row decoder sees it: every block
// opened and decoded with rowenc.DecodeRows, then the rows transposed
// into one column of values per field, short rows padded with NULL —
// the decode the typed one replaced.
type oracleWOS struct {
	cols    [][]schema.Value
	changes []byte
	seqs    []int64
	arity   []int32 // nil when every row has len(cols) values
}

func decodeOracle(c *Client, blocks []fragment.Block) (*oracleWOS, error) {
	var decoded [][]schema.Row
	n, narrow, width := 0, 0, 0
	for _, b := range blocks {
		plain, err := c.sealer.Open(b.Payload)
		if err != nil {
			return nil, err
		}
		rows, err := rowenc.DecodeRows(plain)
		if err != nil {
			return nil, err
		}
		if int64(len(rows)) != b.RowCount {
			return nil, fmt.Errorf("%w: %d rows, header says %d", rowenc.ErrCorrupt, len(rows), b.RowCount)
		}
		for _, r := range rows {
			if n == 0 || len(r.Values) < narrow {
				narrow = len(r.Values)
			}
			width = max(width, len(r.Values))
			n++
		}
		decoded = append(decoded, rows)
	}
	o := &oracleWOS{cols: make([][]schema.Value, width), changes: make([]byte, n), seqs: make([]int64, n)}
	for f := range o.cols {
		o.cols[f] = make([]schema.Value, n)
	}
	if narrow != width {
		o.arity = make([]int32, n)
	}
	i := 0
	for bi, rows := range decoded {
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
	return o, nil
}

// sameWOS reports how d differs from the oracle's decode, if it does:
// every cell through ValueAt, compared by its encoding, and every row's
// change, seq and arity.
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

// wosSeedBlocks are the fuzz target's seeds, each a file of one or two
// block plaintexts.
func wosSeedBlocks() [][2][]byte {
	i, s := schema.Int64, schema.String
	row := func(vals ...schema.Value) schema.Row { return schema.NewRow(vals...) }
	del := func(r schema.Row) schema.Row { r.Change = schema.ChangeDelete; return r }
	narrow := rowenc.EncodeRows([]schema.Row{row(i(1), s("a")), row(i(2), s("b"))})
	wide := rowenc.EncodeRows([]schema.Row{row(i(3), s("c"), schema.Float64(0.5), schema.Bool(true)), del(row(i(4), s("d"), schema.Null(), schema.Bool(false)))})
	truncated := rowenc.EncodeRows([]schema.Row{row(s("a long enough string"))})
	return [][2][]byte{
		{narrow, wide}, // a field first seen mid-file
		{wide, narrow}, // fields a later block's rows lack
		{rowenc.EncodeRows([]schema.Row{row(i(1), schema.Null()), row(i(2), schema.Null())}), nil},                                // an all-NULL field
		{rowenc.EncodeRows([]schema.Row{row(i(1)), row(schema.Null()), row(s("x"))}), rowenc.EncodeRows([]schema.Row{row(i(5))})}, // a kind change mid-column
		{rowenc.EncodeRows([]schema.Row{
			row(schema.Bytes([]byte{0, 1, 2}), schema.List(i(1), i(2)), schema.Struct(s("k"), schema.Null())),
			row(schema.Bytes(nil), schema.List(), schema.Struct(s("j"), i(9))),
		}), nil}, // BYTES and nested fields
		{truncated[:len(truncated)-3], nil},                              // a truncated value
		{append(append([]byte(nil), narrow...), 0), nil},                 // trailing bytes
		{rowenc.EncodeRows(nil), rowenc.EncodeRows([]schema.Row{row()})}, // an empty block, then a row of no values
	}
}

// FuzzDecodeWOSBlocks holds the one-pass typed WOS decoder to the row
// decoder and transposition it replaced: both accept or both refuse a
// file of one or two blocks, and on accept they agree on every cell,
// change, seq and arity. Each block's header counts the rows its payload
// starts with, so what is refused is the payload's doing. The second
// block is opened into the buffer the first was, so a value the
// builders failed to copy out would show here as a changed cell. The
// same file decoded for the fields of mask (bit f: field f) accepts and
// refuses with the full decode, agrees with it on every row and every
// decoded field, and holds nothing of the others.
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
		c, blocks := sealedPayloads(t, plains...)
		got, err := c.decodeBlocks(blocks, nil)
		want, wantErr := decodeOracle(c, blocks)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeBlocks err = %v, oracle err = %v", err, wantErr)
		}
		projected, perr := c.decodeBlocks(blocks, fieldSet{mask})
		if (perr == nil) != (err == nil) {
			t.Fatalf("decodeBlocks err = %v, for fields %b err = %v", err, mask, perr)
		}
		if err != nil {
			if !errors.Is(err, rowenc.ErrCorrupt) || !errors.Is(perr, rowenc.ErrCorrupt) {
				t.Fatalf("err = %v, for fields %b err = %v, want rowenc.ErrCorrupt", err, mask, perr)
			}
			return
		}
		if err := sameWOS(got, want); err != nil {
			t.Fatal(err)
		}
		if err := sameProjection(projected, got, fieldSet{mask}); err != nil {
			t.Fatalf("fields %b: %v", mask, err)
		}
	})
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
// holds every seed to the oracle.)
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
	payload := rowenc.EncodeRows([]schema.Row{
		schema.NewRow(schema.Int64(1)),
		schema.NewRow(schema.Int64(2)),
	})
	for _, header := range []int64{3, 1, -1, 1 << 40} {
		c, blocks := sealedPayloads(t, payload)
		blocks[0].RowCount = header
		d, err := c.decodeBlocks(blocks, nil)
		if !errors.Is(err, rowenc.ErrCorrupt) {
			n := -1
			if d != nil {
				n = d.n
			}
			t.Fatalf("header says %d rows over a 2-row payload: %d rows, err %v; want rowenc.ErrCorrupt", header, n, err)
		}
	}
}
