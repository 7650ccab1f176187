package wire

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"vortex/internal/schema"
)

// TestDecodeBlockStepsOverColumnsWithoutAllocating: a column the caller
// does not read is stepped over by its framed length, so decoding a
// block for none of its columns allocates only the rows' change types
// and arities, however many columns and values the block holds —
// nested lists and structs included.
func TestDecodeBlockStepsOverColumnsWithoutAllocating(t *testing.T) {
	s := &schema.Schema{Fields: []*schema.Field{
		{Name: "s", Kind: schema.KindString},
		{Name: "l", Kind: schema.KindInt64, Mode: schema.Repeated},
		{Name: "r", Kind: schema.KindStruct, Fields: []*schema.Field{{Name: "x", Kind: schema.KindFloat64}}},
		{Name: "b", Kind: schema.KindBytes},
	}}
	rng := rand.New(rand.NewSource(1))
	rows := make([]schema.Row, 64)
	for i := range rows {
		rows[i] = schema.RandomRow(rng, s)
	}
	payload := AppendBlock(nil, rows)
	allocs := testing.AllocsPerRun(100, func() {
		changes, _, err := DecodeBlock(payload, func(int, int) *ColumnBuilder { return nil })
		if err != nil || len(changes) != len(rows) {
			t.Fatalf("%d rows, err %v", len(changes), err)
		}
	})
	if allocs != 2 {
		t.Fatalf("stepping over every column allocated %v times, want 2 (the change types and arities)", allocs)
	}
}

// TestDecodeBlockBoundsAllocationByInput: a row count, a width or a
// column length is refused unless the bytes that remain could hold it,
// and a column must spend a byte per row before a builder is asked for,
// so refusing a hostile block allocates in proportion to the block, not
// to what it claims — each claim here is 2^24 rows, columns or bytes.
func TestDecodeBlockBoundsAllocationByInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<24)
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"row count", huge},
		{"width", append([]byte{1, 1 << 2}, huge...)},
		{"column length", append([]byte{1, 1 << 2, 1, BatchEncPlain}, huge...)},
		{"rows past a column's bytes", append(append(append(huge[:len(huge):len(huge)], 1<<2), make([]byte, 1<<24-1)...), 1, BatchEncPlain, 1, 0x10)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := DecodeBlock(tc.data, func(_, rows int) *ColumnBuilder {
			t.Errorf("%s: asked for a builder of %d rows", tc.name, rows)
			return nil
		})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBlockCorrupt) {
			t.Errorf("%s: err = %v, want ErrBlockCorrupt", tc.name, err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8*len(tc.data)+1<<20); grew > bound {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.data), grew)
		}
	}
}
