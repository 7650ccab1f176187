package ros

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/schema"
	"vortex/internal/wire"
)

// seal replaces the last four bytes of a file image with the checksum
// of what precedes them, so a mutated body gets past Open's CRC check
// and reaches the parsing the fuzz target is after.
func seal(data []byte) []byte {
	if len(data) < 4 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], blockenc.Checksum(out[:len(out)-4]))
	return out
}

// handFile is a version-2 file written out by hand, section by section,
// so that a test can get exactly one of them wrong. The zero value plus
// rows and columns is a well-formed file (no partition, no cluster keys,
// an empty filter, sequences 1..rows, every row an INSERT).
type handFile struct {
	rows    int
	keys    []byte   // the cluster min and max lists; nil = two empty ones
	filter  []byte   // length-prefixed; nil = a well-formed empty filter
	seqs    []byte   // nil = min 1, offsets 0..rows-1
	columns [][]byte // handColumn chunks
}

func (h handFile) bytes() []byte {
	out := append([]byte(fileMagic), fileVersion)
	out = append(out, make([]byte, 8)...)           // schema fingerprint
	out = binary.AppendUvarint(out, 1)              // schema version
	out = binary.AppendUvarint(out, uint64(h.rows)) // row count
	out = append(out, 0)                            // no partition
	if h.keys == nil {
		h.keys = []byte{0, 0}
	}
	out = append(out, h.keys...)
	if h.filter == nil {
		h.filter = appendBlock(nil, bloom.NewBuilder(1).Build().Marshal())
	}
	out = append(out, h.filter...)
	if h.seqs == nil {
		h.seqs = binary.AppendVarint(nil, 1)
		for i := 0; i < h.rows; i++ {
			h.seqs = binary.AppendUvarint(h.seqs, uint64(i))
		}
	}
	out = append(out, h.seqs...)
	var changes []byte // one run of INSERTs
	if h.rows > 0 {
		changes = append(binary.AppendUvarint(nil, uint64(h.rows)), byte(schema.ChangeInsert))
	}
	out = appendBlock(out, changes)
	out = binary.AppendUvarint(out, uint64(len(h.columns)))
	for _, c := range h.columns {
		out = append(out, c...)
	}
	return seal(append(out, 0, 0, 0, 0))
}

// handColumn writes one column chunk: header, no min/max, the two level
// streams and the value page exactly as given.
func handColumn(leaf schema.LeafColumn, entries, values uint64, reps, defs []byte, enc byte, page []byte) []byte {
	out := appendBlock(nil, []byte(leaf.Path))
	out = append(out, byte(leaf.Kind), byte(leaf.MaxRep), byte(leaf.MaxDef))
	out = binary.AppendUvarint(out, entries)
	out = binary.AppendUvarint(out, values)
	out = append(out, 0) // no min/max
	out = binary.AppendUvarint(out, entries-values)
	out = appendBlock(out, reps)
	out = appendBlock(out, defs)
	out = append(out, enc)
	return appendBlock(out, page)
}

var (
	flatID   = schema.LeafColumn{Path: "id", Kind: schema.KindInt64}
	backward = schema.LeafColumn{Path: "Links.Backward", Kind: schema.KindInt64, MaxRep: 1, MaxDef: 2}
	noLevels = []byte{levelsPacked} // width 0: a flat required column's levels
)

func int64Page(vals ...int64) []byte {
	v := make([]schema.Value, len(vals))
	for i, x := range vals {
		v[i] = schema.Int64(x)
	}
	pv := wire.PlainVector("", v)
	_, page := wire.ColumnPayload(&pv, nil)
	return page
}

type hostileFile struct {
	name   string
	data   []byte
	schema *schema.Schema // what to read it under
}

// hostileFiles are CRC-valid files, each wrong in one length. The first
// two are the reproducers FuzzOpen found in version 1, restated for
// version 2; the rest are the lengths version 2 adds.
func hostileFiles() []hostileFile {
	idSchema := &schema.Schema{Fields: []*schema.Field{{Name: "id", Kind: schema.KindInt64, Mode: schema.Required}}}
	idPage := int64Page(7, 8)
	ids := wire.IntVector("", schema.KindInt64, []int64{7, 8})
	_, typedPage := wire.ColumnPayload(&ids, nil)
	run := func(n uint64) []byte { return append([]byte{levelsRuns}, append(binary.AppendUvarint(nil, n), 0)...) }
	return []hostileFile{
		// Converted to int, 2^63+5 is negative: it slipped past a
		// `pos+int(n) > len(body)` guard and panicked in the slice
		// expression behind it.
		{"filter length past the body", handFile{filter: binary.AppendUvarint(nil, 1<<63+5)}.bytes(), idSchema},
		// One column claims 2^30 entries, all in one run of each level
		// stream. Expanding those levels took 2 GiB and 8 s.
		{"level run of 2^30 entries", handFile{rows: 1, columns: [][]byte{
			handColumn(backward, 1<<30, 0, run(1<<30), run(1<<30), byte(EncodingPlain), nil),
		}}.bytes(), dremelSchema()},
		{"sequence offset overflows min+off", handFile{rows: 2,
			seqs:    append(binary.AppendVarint(nil, math.MaxInt64-1), 1, 2),
			columns: [][]byte{handColumn(flatID, 2, 2, noLevels, noLevels, byte(EncodingPlain), idPage)},
		}.bytes(), idSchema},
		{"rows past the sequence bytes", handFile{rows: 1 << 40, seqs: []byte{2, 0, 1}}.bytes(), idSchema},
		// Three entries of one-bit repetition levels are one byte; five
		// are given.
		{"packed levels longer than the entry count", handFile{rows: 1, columns: [][]byte{
			handColumn(backward, 3, 0, []byte{levelsPacked, 0, 0, 0, 0, 0}, run(3), byte(EncodingPlain), nil),
		}}.bytes(), dremelSchema()},
		{"packed levels shorter than the entry count", handFile{rows: 1, columns: [][]byte{
			handColumn(backward, 1<<20, 0, []byte{levelsPacked, 0}, run(1<<20), byte(EncodingPlain), nil),
		}}.bytes(), dremelSchema()},
		{"run-length page whose runs sum past the row count", handFile{rows: 2, columns: [][]byte{
			handColumn(flatID, 2, 2, noLevels, noLevels, byte(EncodingRLE), append([]byte{3}, int64Page(7)...)),
		}}.bytes(), idSchema},
		// A Snappy block's preamble is its decoded length: 1 GiB, from
		// four bytes of block.
		{"snappy page declaring more than its bytes can decode to", handFile{rows: 2, columns: [][]byte{
			handColumn(flatID, 2, 2, noLevels, noLevels, byte(EncodingPlain)|pageSnappy, append(binary.AppendUvarint(nil, 1<<30), 0, 0, 0, 0)),
		}}.bytes(), idSchema},
		// A well-formed TYPED payload: a frame's encoding, no page's.
		{"TYPED value page", handFile{rows: 2, columns: [][]byte{
			handColumn(flatID, 2, 2, noLevels, noLevels, wire.BatchEncTyped, typedPage),
		}}.bytes(), idSchema},
		// 2^40 cluster-key values in a file of a few dozen bytes.
		{"cluster-key list past the body", handFile{keys: binary.AppendUvarint(nil, 1<<40)}.bytes(), idSchema},
	}
}

// clusteredRows are rows of flatSchema as a clustered file holds them:
// long region names sharing a prefix, in runs of four — a run-length
// value page that Snappy then shrinks.
func clusteredRows(n int) []schema.Row {
	rows := flatRows(n)
	for i := range rows {
		rows[i].Values[0] = schema.String(fmt.Sprintf("region-with-a-long-shared-prefix-%04d", i/4))
	}
	return rows
}

func fuzzSeedFile(f *testing.F, s *schema.Schema, rows []schema.Row) []byte {
	seqs := make([]int64, len(rows))
	for i := range seqs {
		seqs[i] = int64(i + 1)
	}
	_, data := finish(f, s, rows, seqs)
	return data
}

// readEverything opens data and reads it both ways a scan can — rows
// through the Dremel assembler, vectors through the column codec — and
// returns the first error, checking that whatever comes back has one
// entry per row.
func readEverything(t *testing.T, data []byte, schemas ...*schema.Schema) error {
	rd, err := Open(data)
	if err != nil {
		return err
	}
	var first error
	for _, s := range schemas {
		rows, err := rd.Rows(s)
		if err == nil && int64(len(rows)) != rd.RowCount() {
			t.Fatalf("Rows returned %d rows, file holds %d", len(rows), rd.RowCount())
		}
		vecs, _, _, verr := rd.Vectors(s, nil)
		for i := range vecs {
			if n := vecs[i].Len(); int64(n) != rd.RowCount() {
				t.Fatalf("vector %q covers %d rows, file holds %d", vecs[i].Name, n, rd.RowCount())
			}
		}
		if first == nil {
			first = errors.Join(err, verr)
		}
	}
	return first
}

// FuzzOpen feeds arbitrary bytes — re-sealed, so mutations get past the
// trailing CRC — to the ROS file parser, which reads what comes back
// from Colossus and from the disk tier. Open must refuse or accept
// without panicking, and a file it accepts must then assemble rows and
// build vectors, under a flat and a nested schema, without panicking,
// without expanding a few bytes of run-length levels into gigabytes,
// and with one entry per row in whatever comes back.
func FuzzOpen(f *testing.F) {
	flat, nested := flatSchema(), dremelSchema()
	f.Add(fuzzSeedFile(f, flat, flatRows(24)))
	f.Add(fuzzSeedFile(f, nested, dremelRows()))
	f.Add(fuzzSeedFile(f, flat, clusteredRows(256)))
	for _, h := range hostileFiles() {
		f.Add(h.data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		_ = readEverything(t, seal(data), flat, nested)
	})
}

// TestOpenRefusesHostileHeaders pins the FuzzOpen reproducers and the
// hand-built hostile lengths as plain refusals — by Open, or by the
// first read of the page the length belongs to — made before anything
// is sized by the length.
func TestOpenRefusesHostileHeaders(t *testing.T) {
	// The control: written by hand with nothing wrong, the file reads.
	idSchema := &schema.Schema{Fields: []*schema.Field{{Name: "id", Kind: schema.KindInt64, Mode: schema.Required}}}
	good := handFile{rows: 2, columns: [][]byte{handColumn(flatID, 2, 2, noLevels, noLevels, byte(EncodingPlain), int64Page(7, 8))}}
	if err := readEverything(t, good.bytes(), idSchema); err != nil {
		t.Fatalf("well-formed hand-written file: %v", err)
	}
	for _, h := range hostileFiles() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := readEverything(t, h.data, h.schema)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: %v, want ErrCorrupt", h.name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: refusing it allocated %d bytes", h.name, grew)
		}
	}
}
