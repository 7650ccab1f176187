package ros

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"vortex/internal/bin"
	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
	"vortex/internal/snappy"
	"vortex/internal/wire"
)

// Errors returned by the ROS codec.
var (
	ErrCorrupt        = errors.New("ros: corrupt file")
	ErrSchemaMismatch = errors.New("ros: schema fingerprint mismatch")
)

const (
	fileMagic = "VXR1"
	// fileVersion 2 is the only layout this package reads or writes.
	// Version 1 (a fixed 64 K-key filter, absolute sequence varints, a
	// change byte per row, run-length-only levels) is refused: no file
	// outlives the process that wrote it, so there is none to read.
	fileVersion = 2
	// dictionary encoding is chosen when it pays for itself.
	maxDictSize = 1024

	// maxColumnEntries caps the (rep, def) entries of one column. Run-
	// length levels let a few bytes claim any number of entries, so
	// unlike a row count this one is not bounded by the file's length.
	// rowenc caps one collection at 1<<24 elements and files are written
	// a few thousand rows or one WOS fragment at a time, so a column past
	// it is not one this system writes; Finish refuses to, so that Open
	// never refuses a file a Writer produced.
	maxColumnEntries = 1 << 24
	// levelCapHint is the most a level slice is sized up front.
	levelCapHint = 1 << 16
)

// Encoding identifies how a column's value page is stored: the wire
// codec's encoding byte, so the two enums cannot drift.
type Encoding byte

// pageSnappy, set in a page's encoding byte, says the page is the Snappy
// block of the payload the other bits name. The Writer sets it on a page
// Snappy makes smaller — order keys sharing a prefix, repeated
// clustering values — and on no other: a page of varints that does not
// compress at all is stored as it is and pays no decode.
const pageSnappy = 0x80

// The encodings the Writer chooses between.
const (
	EncodingPlain = Encoding(wire.BatchEncPlain)
	EncodingDict  = Encoding(wire.BatchEncDict)
	EncodingRLE   = Encoding(wire.BatchEncRLE)
)

// ColumnStats are the per-column properties carried by every ROS file
// and indexed by Big Metadata (§6.2, §7.2).
type ColumnStats struct {
	Path      string
	Kind      schema.Kind
	Entries   int64
	Values    int64
	NullCount int64
	HasRange  bool
	Min, Max  schema.Value
	Encoding  Encoding
}

// Writer builds one ROS file from rows added in storage order, as
// columns (AddColumns) or one at a time (Add, the same call over
// columns of one value). It keeps them typed from vector to page: each
// leaf column is levels plus one wire.Scalars buffer, and Finish takes
// ranges, counts runs and distinct values, and builds the one page the
// policy keeps, all on those buffers.
type Writer struct {
	schema   *schema.Schema
	striper  *striper
	changes  []byte
	seqs     []int64
	rowCount int64

	partitionField int   // top-level index of the partition column, or -1
	clusterFields  []int // top-level index of each ClusterBy column, or -1

	partition    int64
	hasPartition bool
	allowMixed   bool
	partitions   []int64

	clusterMin []schema.Value
	clusterMax []schema.Value
	lastKey    []schema.Value // clustering key of the last row added
	keys       *bloom.Builder
	filter     []byte // marshaled by Finish

	keyCols  []*wire.Vector       // AddColumns: each ClusterBy column of the call, or nil
	keyOrder []func(i, j int) int // AddColumns: each key column's Order, nil for a missing one

	// Finish's buffers, kept from file to file: the file as it is
	// built, the Layout of a value page, the page and its Snappy block.
	file, page, zpage []byte
	layout            wire.Layout

	rowCols []wire.Vector // Add's one-row columns, reused
	undo    []leafMark    // AddColumns: each striped column's lengths on entry
}

// leafMark is how many entries and values a striped column held.
type leafMark struct{ entries, values int }

// maxBloomKeys is the most distinct clustering values a file's filter
// is sized for.
const maxBloomKeys = 1 << 16

// NewWriter returns a Writer for rows of schema s.
func NewWriter(s *schema.Schema) *Writer {
	w := &Writer{
		schema:         s,
		striper:        newStriper(s),
		keys:           bloom.NewBuilder(maxBloomKeys),
		partitionField: s.FieldIndex(s.PartitionField), // -1 when unpartitioned: no field is named ""
	}
	for _, name := range s.ClusterBy {
		w.clusterFields = append(w.clusterFields, s.FieldIndex(name))
	}
	w.lastKey = make([]schema.Value, len(w.clusterFields))
	w.keyCols = make([]*wire.Vector, len(w.clusterFields))
	w.keyOrder = make([]func(i, j int) int, len(w.clusterFields))
	w.undo = make([]leafMark, len(w.striper.cols))
	return w
}

// Reset empties the Writer for the next file of the same schema. It
// keeps the column buffers it has grown, so a pass that writes many
// files sizes them once, for its largest.
func (w *Writer) Reset() {
	for _, c := range w.striper.cols {
		c.reps, c.defs = c.reps[:0], c.defs[:0]
		c.vals.Truncate(0)
	}
	w.seqs, w.changes, w.partitions = w.seqs[:0], w.changes[:0], w.partitions[:0]
	w.rowCount, w.partition, w.hasPartition = 0, 0, false
	w.clusterMin, w.clusterMax, w.filter = nil, nil, nil
	w.keys = bloom.NewBuilder(maxBloomKeys)
}

// AllowMixedPartitions permits rows from several partitions in one file
// (the stable 1:1 WOS→ROS conversion of §7.3 preserves the source
// fragment verbatim, and a WOS fragment may span partitions). The file's
// partition id is then unset; PartitionSet returns the full set.
func (w *Writer) AllowMixedPartitions() { w.allowMixed = true }

// oneRow is the permutation that adds a one-row column set.
var oneRow = []int32{0}

// Add appends one row with its storage sequence number: AddColumns over
// columns of one value each.
func (w *Writer) Add(r schema.Row, seq int64) error {
	w.rowCols = w.rowCols[:0]
	for i := range r.Values {
		w.rowCols = append(w.rowCols, wire.PlainVector("", r.Values[i:i+1]))
	}
	return w.AddColumns(w.rowCols, []int64{seq}, []byte{byte(r.Change)}, oneRow)
}

// AddColumns appends rows held as columns: cols[f] holds top-level
// field f, seqs[i] and changes[i] row i's storage sequence and change
// type, and perm lists the rows to add, in file order. There may be
// fewer columns than the schema has fields (rows written before the
// trailing fields were added read NULL there), never more. A column is
// a vector of any encoding; a flat field's typed vector of the field's
// kind is the one striped without a schema.Value per row. Every value
// must be valid for its field, which is checked while it is striped —
// what schema.ValidateRow checks row by row; all rows of a file must
// belong to the same partition (the optimizer splits by partition,
// Figure 5) unless AllowMixedPartitions. A refused call adds nothing.
func (w *Writer) AddColumns(cols []wire.Vector, seqs []int64, changes []byte, perm []int32) error {
	// What addColumns can change before it fails: the Writer's own fields
	// (slices only ever grow, so their old headers restore them) and the
	// lengths of the striped columns.
	saved := *w
	for k, c := range w.striper.cols {
		w.undo[k] = leafMark{len(c.reps), c.vals.Len()}
	}
	err := w.addColumns(cols, seqs, changes, perm)
	if err != nil {
		*w = saved
		for k, c := range w.striper.cols {
			m := w.undo[k]
			c.reps, c.defs = c.reps[:m.entries], c.defs[:m.entries]
			c.vals.Truncate(m.values)
		}
	}
	return err
}

func (w *Writer) addColumns(cols []wire.Vector, seqs []int64, changes []byte, perm []int32) error {
	if len(cols) > len(w.schema.Fields) {
		return fmt.Errorf("schema: row has %d values, schema has %d fields", len(cols), len(w.schema.Fields))
	}
	// column returns the column of top-level field f, nil when the rows
	// do not carry it.
	column := func(f int) *wire.Vector {
		if f < 0 || f >= len(cols) {
			return nil
		}
		return &cols[f]
	}
	for f, root := range w.striper.roots {
		if err := root.stripeColumn(column(f), perm); err != nil {
			return err
		}
	}
	w.seqs = slices.Grow(w.seqs, len(perm))
	w.changes = slices.Grow(w.changes, len(perm))
	for _, i := range perm {
		if changes[i] != byte(schema.ChangeInsert) && len(w.schema.PrimaryKey) == 0 {
			return fmt.Errorf("schema: %v rows require a primary key on the table", schema.ChangeType(changes[i]))
		}
		w.seqs = append(w.seqs, seqs[i])
		w.changes = append(w.changes, changes[i])
	}

	pcol := column(w.partitionField)
	for k, i := range perm {
		var part int64
		var ok bool
		if pcol != nil {
			part, ok = pcol.PartitionOf(int(i))
		}
		if w.rowCount == 0 && k == 0 {
			w.partition, w.hasPartition = part, ok
		} else if ok != w.hasPartition || (ok && part != w.partition) {
			if !w.allowMixed {
				return fmt.Errorf("ros: row partition %d differs from file partition %d", part, w.partition)
			}
			w.hasPartition = false
		}
		if ok {
			w.addPartition(part)
		}
	}
	if len(w.clusterFields) > 0 && len(perm) > 0 {
		for n, f := range w.clusterFields {
			w.keyCols[n], w.keyOrder[n] = column(f), nil
			if w.keyCols[n] != nil && len(perm) > 1 {
				w.keyOrder[n] = w.keyCols[n].Order()
			}
		}
		w.addClusterKeys(perm)
	}
	w.rowCount += int64(len(perm))
	return nil
}

// addClusterKeys keeps the clustering bookkeeping of rows perm of the
// call's key columns: range and bloom membership, once per run of rows
// sharing a key (a clustered file is sorted by it). A row is compared
// with the one before it by the columns' Order, typed where they are;
// only the first row of a call is compared with lastKey, the previous
// call's last key.
func (w *Writer) addClusterKeys(perm []int32) {
	for k, i := range perm {
		run := k > 0 || w.rowCount > 0
		for n, col := range w.keyCols {
			if k == 0 {
				run = run && keyAt(col, int(i)).Compare(w.lastKey[n]) == 0
			} else {
				run = run && (col == nil || w.keyOrder[n](int(i), int(perm[k-1])) == 0)
			}
		}
		if run {
			continue
		}
		for n, col := range w.keyCols {
			w.lastKey[n] = keyAt(col, int(i))
		}
		if w.clusterMin == nil || schema.CompareClusterKeys(w.lastKey, w.clusterMin) < 0 {
			w.clusterMin = slices.Clone(w.lastKey)
		}
		if w.clusterMax == nil || schema.CompareClusterKeys(w.lastKey, w.clusterMax) > 0 {
			w.clusterMax = slices.Clone(w.lastKey)
		}
		for _, v := range w.lastKey {
			if !v.IsNull() {
				w.keys.AddString(v.Key())
			}
		}
	}
	for n, col := range w.keyCols {
		w.lastKey[n] = keyAt(col, int(perm[len(perm)-1]))
	}
}

// keyAt is row i's value of a key column, NULL when the rows do not
// carry it.
func keyAt(col *wire.Vector, i int) schema.Value {
	if col == nil {
		return schema.Null()
	}
	return col.ValueAt(i)
}

func (w *Writer) addPartition(p int64) {
	if n := len(w.partitions); n > 0 && w.partitions[n-1] == p {
		return // the common case: a file of one partition
	}
	for _, q := range w.partitions {
		if q == p {
			return
		}
	}
	w.partitions = append(w.partitions, p)
}

// Partitions returns every partition id seen by the writer.
func (w *Writer) Partitions() []int64 { return append([]int64(nil), w.partitions...) }

// RowCount returns the number of rows added so far.
func (w *Writer) RowCount() int64 { return w.rowCount }

// ClusterBounds returns the clustering-key range of the added rows.
func (w *Writer) ClusterBounds() (min, max []schema.Value) { return w.clusterMin, w.clusterMax }

// Bloom returns the marshaled filter over the file's clustering values,
// as Finish wrote it.
func (w *Writer) Bloom() []byte { return w.filter }

// SeqBounds returns the min and max sequence numbers of the added rows.
func (w *Writer) SeqBounds() (min, max int64) {
	for i, s := range w.seqs {
		if i == 0 || s < min {
			min = s
		}
		if i == 0 || s > max {
			max = s
		}
	}
	return min, max
}

// Finish encodes the file. It is built in a buffer the Writer keeps
// from file to file and handed out as a copy of its exact length.
func (w *Writer) Finish() ([]byte, error) {
	out := append(w.file[:0], fileMagic...)
	out = append(out, fileVersion)
	var fp [8]byte
	binary.LittleEndian.PutUint64(fp[:], w.schema.Fingerprint())
	out = append(out, fp[:]...)
	out = binary.AppendUvarint(out, uint64(w.schema.Version))
	out = binary.AppendUvarint(out, uint64(w.rowCount))

	if w.hasPartition {
		out = append(out, 1)
		out = binary.AppendVarint(out, w.partition)
	} else {
		out = append(out, 0)
	}
	out = appendValueList(out, w.clusterMin)
	out = appendValueList(out, w.clusterMax)
	w.filter = w.keys.Build().Marshal()
	out = appendBlock(out, w.filter)

	// Row metadata: sequence numbers as offsets from the file's smallest
	// (a file's rows were written close together, so its TrueTime
	// sequences share their high bytes), change types as runs.
	minSeq, _ := w.SeqBounds()
	out = binary.AppendVarint(out, minSeq)
	for _, s := range w.seqs {
		out = binary.AppendUvarint(out, uint64(s-minSeq))
	}
	out = binary.AppendUvarint(out, uint64(runsLen(w.changes)))
	out = appendRuns(out, w.changes)

	out = binary.AppendUvarint(out, uint64(len(w.striper.cols)))
	for _, c := range w.striper.cols {
		if len(c.reps) > maxColumnEntries {
			return nil, fmt.Errorf("ros: column %q has %d entries, a file holds at most %d", c.leaf.Path, len(c.reps), maxColumnEntries)
		}
		out = w.appendColumn(out, c)
	}
	out = binary.LittleEndian.AppendUint32(out, blockenc.Checksum(out))
	w.file = out
	return slices.Clone(out), nil
}

// appendBlock appends b behind its uvarint length.
func appendBlock(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func appendValueList(dst []byte, vs []schema.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = rowenc.AppendValue(dst, v)
	}
	return dst
}

// appendRuns appends levels run-length encoded as (count, value) pairs.
func appendRuns(dst []byte, levels []uint8) []byte {
	for i := 0; i < len(levels); {
		j := i + 1
		for j < len(levels) && levels[j] == levels[i] {
			j++
		}
		dst = binary.AppendUvarint(dst, uint64(j-i))
		dst = append(dst, levels[i])
		i = j
	}
	return dst
}

// runsLen is the length of appendRuns' encoding of levels.
func runsLen(levels []uint8) int {
	n := 0
	for i := 0; i < len(levels); {
		j := i + 1
		for j < len(levels) && levels[j] == levels[i] {
			j++
		}
		n += (bits.Len(uint(j-i)|1)+6)/7 + 1
		i = j
	}
	return n
}

// rleDecode expands total levels. Zero-length runs and runs past total
// are refused, and the slice starts at no more than levelCapHint and
// grows as runs arrive, so a header's count alone commits little.
func rleDecode(data []byte, total int) ([]uint8, error) {
	out := make([]uint8, 0, min(total, levelCapHint))
	r := bin.NewReader(data)
	for len(out) < total {
		n, level := r.Uvarint(), r.Byte()
		if r.Err() != nil || n == 0 || n > uint64(total-len(out)) {
			return nil, ErrCorrupt
		}
		for k := uint64(0); k < n; k++ {
			out = append(out, level)
		}
	}
	if r.Len() != 0 {
		return nil, ErrCorrupt
	}
	return out, nil
}

// A level stream is one mode byte and a payload: the levels as
// appendRuns' runs, or bit-packed, low bits first, at the width of the
// column's largest possible level. Long runs (a flat column's levels are
// one run) favour the first; the levels of a repeated field, which
// change at every entry, pack into a tenth of their runs.
const (
	levelsRuns   = 0
	levelsPacked = 1
)

// appendLevels appends the level stream of levels behind its length,
// in the smaller of the two modes.
func appendLevels(dst []byte, levels []uint8, maxLevel int) []byte {
	runs := runsLen(levels)
	width := bits.Len(uint(maxLevel))
	packed := (len(levels)*width + 7) / 8
	if packed >= runs {
		dst = binary.AppendUvarint(dst, uint64(1+runs))
		return appendRuns(append(dst, levelsRuns), levels)
	}
	dst = binary.AppendUvarint(dst, uint64(1+packed))
	dst = append(dst, levelsPacked)
	at := len(dst)
	dst = slices.Grow(dst, packed)[:at+packed]
	out := dst[at:]
	clear(out)
	// width 0: every level is 0 and the entry count says it all.
	for i := 0; width > 0 && i < len(levels); i++ {
		// width <= 8, so a level spans at most two bytes.
		bit := i * width
		v := uint16(levels[i]) << (bit % 8)
		out[bit/8] |= byte(v)
		if v > 0xff {
			out[1+bit/8] |= byte(v >> 8)
		}
	}
	return dst
}

// decodeLevels expands a level stream of total entries. A packed
// stream's length is fixed by total and the width, and is checked
// before the levels are sized by total.
func decodeLevels(data []byte, total, maxLevel int) ([]uint8, error) {
	if len(data) == 0 {
		return nil, ErrCorrupt
	}
	mode, data := data[0], data[1:]
	switch mode {
	case levelsRuns:
		return rleDecode(data, total)
	case levelsPacked:
		width := bits.Len(uint(maxLevel))
		if len(data) != (total*width+7)/8 {
			return nil, fmt.Errorf("%w: %d packed level bytes for %d entries of %d bits", ErrCorrupt, len(data), total, width)
		}
		out := make([]uint8, total)
		mask := uint16(1)<<width - 1
		for i := 0; width > 0 && i < total; i++ {
			bit := i * width
			v := uint16(data[bit/8])
			if bit%8+width > 8 {
				v |= uint16(data[bit/8+1]) << 8
			}
			out[i] = uint8(v >> (bit % 8) & mask)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: level mode %d", ErrCorrupt, mode)
}

// appendColumn serializes one column chunk.
func (w *Writer) appendColumn(out []byte, c *leafData) []byte {
	out = binary.AppendUvarint(out, uint64(len(c.leaf.Path)))
	out = append(out, c.leaf.Path...)
	out = append(out, byte(c.leaf.Kind), byte(c.leaf.MaxRep), byte(c.leaf.MaxDef))
	values := c.vals.Len()
	out = binary.AppendUvarint(out, uint64(len(c.reps)))
	out = binary.AppendUvarint(out, uint64(values))

	// Stats: the range of a comparable column's values, and its NULLs.
	lo, hi := -1, -1
	if c.leaf.Kind.Comparable() {
		lo, hi = c.vals.MinMax()
	}
	if lo >= 0 {
		out = append(out, 1)
		out = rowenc.AppendValue(out, c.vals.Value(lo))
		out = rowenc.AppendValue(out, c.vals.Value(hi))
	} else {
		out = append(out, 0)
	}
	out = binary.AppendUvarint(out, uint64(len(c.reps)-values))

	out = appendLevels(out, c.reps, c.leaf.MaxRep)
	out = appendLevels(out, c.defs, c.leaf.MaxDef)

	// Values: encoding byte, page length, page — the wire codec's
	// payload, Snappy-compressed where that makes it any smaller. A
	// threshold below 1 would put a cliff in the stored size: a page
	// whose ratio sits at the threshold is stored raw or compressed on
	// a byte's difference in its input.
	enc := w.encodeValues(&c.vals)
	page := w.page
	if w.zpage = snappy.AppendEncode(w.zpage[:0], page); len(w.zpage) < len(page) {
		enc, page = enc|pageSnappy, w.zpage
	}
	out = append(out, enc)
	return appendBlock(out, page)
}

// encodeValues is the Writer's encoding policy, and only that: a
// dictionary page when there are at least 8 values, at most maxDictSize
// distinct ones and at most half as many distinct as values, a PLAIN
// page otherwise — unless the values average runs of two or more and
// their run-length page is smaller still, which is what a clustered
// file's clustering column looks like. The policy weighs the lengths
// one Layout pass counts, and only the page it keeps is built, by the
// wire codec, into w.page.
func (w *Writer) encodeValues(vals *wire.Scalars) (enc byte) {
	n := vals.Len()
	maxDistinct := 0
	if n >= 8 {
		maxDistinct = min(maxDictSize, n/2)
	}
	l := &w.layout
	l.Measure(vals, maxDistinct, n/2)
	enc, size := byte(wire.BatchEncPlain), l.PlainLen
	if l.DictLen >= 0 {
		enc, size = wire.BatchEncDict, l.DictLen
	}
	if l.RunsLen >= 0 && l.RunsLen < size {
		enc = wire.BatchEncRLE
	}
	w.page = vals.AppendPayload(w.page[:0], l, enc)
	return enc
}

// Column is one column chunk. Level and value pages are decoded lazily:
// a projected scan materializes only the columns it touches, which is
// where the read-optimized format earns its name.
type Column struct {
	Leaf   schema.LeafColumn
	Reps   []uint8
	Defs   []uint8
	Values []schema.Value
	Stats  ColumnStats

	rawReps    []byte
	rawDefs    []byte
	rawValues  []byte
	compressed bool // rawValues is a Snappy block of the page

	// mu guards lazy decoding: a Reader may be shared across concurrent
	// scans (the client's read cache hands one Reader to every query),
	// so materialize must be safe to race.
	mu      sync.Mutex
	decoded bool

	// Memoized encoded-form view (vector.go); built at most once, then
	// shared zero-copy with every vectorized scan.
	vecDone bool
	vec     *wire.Vector
	vecErr  error
}

// materialize decodes the column's level and value pages.
func (c *Column) materialize() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.decoded {
		return nil
	}
	var err error
	c.Reps, err = decodeLevels(c.rawReps, int(c.Stats.Entries), c.Leaf.MaxRep)
	if err != nil {
		return err
	}
	c.Defs, err = c.defLevels()
	if err != nil {
		return err
	}
	page, err := c.page()
	if err != nil {
		return err
	}
	c.Values = page.Gather(nil)
	c.decoded = true
	return nil
}

// page decodes the value page through the wire codec, in encoded form:
// a dictionary page comes back as dictionary and codes. A page is
// PLAIN, DICT or RLE; the codec's TYPED encoding is a frame's alone.
func (c *Column) page() (wire.Vector, error) {
	switch c.Stats.Encoding {
	case EncodingPlain, EncodingDict, EncodingRLE:
	default:
		return wire.Vector{}, fmt.Errorf("%w: column %q: page encoding 0x%02x", ErrCorrupt, c.Leaf.Path, byte(c.Stats.Encoding))
	}
	raw := c.rawValues
	if c.compressed {
		var err error
		if raw, err = snappy.Decode(nil, raw); err != nil {
			return wire.Vector{}, fmt.Errorf("%w: column %q: %v", ErrCorrupt, c.Leaf.Path, err)
		}
	}
	v, err := wire.DecodeColumn(c.Leaf.Path, byte(c.Stats.Encoding), raw, int(c.Stats.Values))
	if err != nil {
		return v, fmt.Errorf("%w: column %q: %v", ErrCorrupt, c.Leaf.Path, err)
	}
	return v, nil
}

// defLevels decodes the definition levels and checks that the entries
// they mark defined are exactly the value page's values, so whoever
// pairs the two can index one by the other.
func (c *Column) defLevels() ([]uint8, error) {
	defs, err := decodeLevels(c.rawDefs, int(c.Stats.Entries), c.Leaf.MaxDef)
	if err != nil {
		return nil, err
	}
	defined := int64(0)
	for _, d := range defs {
		if int(d) == c.Leaf.MaxDef {
			defined++
		}
	}
	if defined != c.Stats.Values {
		return nil, fmt.Errorf("%w: column %q defines %d entries, holds %d values", ErrCorrupt, c.Leaf.Path, defined, c.Stats.Values)
	}
	return defs, nil
}

// data decodes the column and returns it in the assembler's form.
func (c *Column) data() (*columnData, error) {
	if err := c.materialize(); err != nil {
		return nil, err
	}
	return &columnData{leaf: c.Leaf, reps: c.Reps, defs: c.Defs, values: c.Values}, nil
}

// Reader provides access to one ROS file.
type Reader struct {
	rowCount     int64
	partition    int64
	hasPartition bool
	clusterMin   []schema.Value
	clusterMax   []schema.Value
	filter       []byte // marshaled; a slice of the file image
	changes      []byte
	changeRuns   wire.Vector // changes as INT64 runs, for the scans that frame them
	seqs         []int64
	columns      map[string]*Column
	order        []string

	// Memoized assembled values of struct/repeated top-level fields
	// (vector.go), shared read-only with every scan like Column.vec.
	nestedMu sync.Mutex
	nested   map[string]*wire.Vector
}

// Open parses a ROS file image.
func Open(data []byte) (*Reader, error) {
	if len(data) < 4+1+8+4 || string(data[:4]) != fileMagic {
		return nil, ErrCorrupt
	}
	body := data[:len(data)-4]
	if binary.LittleEndian.Uint32(data[len(data)-4:]) != blockenc.Checksum(body) {
		return nil, fmt.Errorf("%w: checksum", ErrCorrupt)
	}
	if data[4] != fileVersion {
		return nil, fmt.Errorf("%w: version %d", ErrCorrupt, data[4])
	}
	// Bytes 5..13 are the writer's schema fingerprint and the uvarint
	// after them its schema version: written, never consulted (the
	// caller resolves schema versions through the SMS).
	c := bin.NewReader(body[13:])
	c.Uvarint()
	// Every row spends at least one byte on its sequence offset.
	rc := c.Count(1)
	r := &Reader{columns: make(map[string]*Column), rowCount: int64(rc)}
	r.hasPartition = readFlag(c)
	if r.hasPartition {
		r.partition = c.Varint()
	}
	r.clusterMin, r.clusterMax = readValueList(c), readValueList(c)
	r.filter = c.Block()

	// Row metadata: sequence offsets from the smallest, change-type runs.
	minSeq := c.Varint()
	r.seqs = make([]int64, rc)
	for i := range r.seqs {
		off := c.Uvarint()
		r.seqs[i] = minSeq + int64(off)
		if off > math.MaxInt64 || r.seqs[i] < minSeq {
			return nil, fmt.Errorf("%w: sequence %d+%d overflows", ErrCorrupt, minSeq, off)
		}
	}
	changes := c.Block()
	if c.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, c.Err())
	}
	var err error
	if r.changes, err = rleDecode(changes, rc); err != nil {
		return nil, err
	}
	r.changeRuns = wire.IntRuns("", r.changes)

	ncols := c.Uvarint()
	if ncols > 1<<16 {
		return nil, ErrCorrupt
	}
	for i := 0; i < int(ncols); i++ {
		col, err := decodeColumn(c, r.rowCount)
		if err != nil {
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
		r.columns[col.Leaf.Path] = col
		r.order = append(r.order, col.Leaf.Path)
	}
	if c.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, c.Err())
	}
	if c.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, c.Len())
	}
	return r, nil
}

// readFlag reads a byte that must be 0 or 1.
func readFlag(c *bin.Reader) bool {
	b := c.Byte()
	if b > 1 {
		c.Fail(fmt.Errorf("flag byte %d", b))
	}
	return b == 1
}

// readValueList reads a cluster-key list. Every value spends a byte.
func readValueList(c *bin.Reader) []schema.Value {
	out := make([]schema.Value, c.Count(1))
	for i := range out {
		out[i] = rowenc.ReadValue(c)
	}
	return out
}

// decodeColumn parses one column chunk's header and slices out its
// three pages, which stay encoded until a scan asks for them. The entry
// count is bounded here, before anything is sized by it: a flat column
// has one entry per row, a repeated one at most maxColumnEntries.
func decodeColumn(c *bin.Reader, rowCount int64) (*Column, error) {
	path := c.Block()
	kind, maxRep, maxDef := c.Byte(), c.Byte(), c.Byte()
	nEntries, nValues := c.Uvarint(), c.Uvarint()
	if c.Err() != nil || len(path) > 1<<12 {
		return nil, ErrCorrupt
	}
	leaf := schema.LeafColumn{Path: string(path), Kind: schema.Kind(kind), MaxRep: int(maxRep), MaxDef: int(maxDef)}
	if nEntries > maxColumnEntries || (leaf.MaxRep == 0 && nEntries != uint64(rowCount)) {
		return nil, fmt.Errorf("%w: column %q has %d entries for %d rows", ErrCorrupt, leaf.Path, nEntries, rowCount)
	}
	if nValues > nEntries {
		return nil, ErrCorrupt
	}
	col := &Column{Leaf: leaf}
	col.Stats = ColumnStats{Path: leaf.Path, Kind: leaf.Kind, Entries: int64(nEntries), Values: int64(nValues), NullCount: int64(nEntries - nValues)}
	if col.Stats.HasRange = readFlag(c); col.Stats.HasRange {
		col.Stats.Min, col.Stats.Max = rowenc.ReadValue(c), rowenc.ReadValue(c)
	}
	if nulls := c.Uvarint(); c.Err() == nil && nulls != nEntries-nValues {
		return nil, ErrCorrupt
	}
	col.rawReps, col.rawDefs = c.Block(), c.Block()
	enc := c.Byte()
	col.Stats.Encoding = Encoding(enc &^ pageSnappy)
	col.compressed = enc&pageSnappy != 0
	col.rawValues = c.Block()
	if c.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, c.Err())
	}
	return col, nil
}

// RowCount returns the number of rows in the file.
func (r *Reader) RowCount() int64 { return r.rowCount }

// Partition returns the file's partition id (days since epoch).
func (r *Reader) Partition() (int64, bool) { return r.partition, r.hasPartition }

// ClusterRange returns the min and max clustering keys of the file.
func (r *Reader) ClusterRange() (min, max []schema.Value) { return r.clusterMin, r.clusterMax }

// Bloom parses the filter over the file's clustering values. Open only
// slices it out: scans never consult it (Big Metadata prunes on the
// copy in the fragment's metadata record).
func (r *Reader) Bloom() (*bloom.Filter, error) { return bloom.Unmarshal(r.filter) }

// Column returns the decoded column at path, or nil. It returns nil
// also when the column's pages fail to decode; Rows reports such errors.
func (r *Reader) Column(path string) *Column {
	c := r.columns[path]
	if c == nil {
		return nil
	}
	if err := c.materialize(); err != nil {
		return nil
	}
	return c
}

// Rows re-assembles every row in the file under schema s (which must
// have the same fingerprint the file was written with, or be an evolved
// superset of it — the caller resolves schema versions via the SMS).
func (r *Reader) Rows(s *schema.Schema) ([]rowenc.Stamped, error) {
	return r.RowsProjected(s, nil)
}

// RowsProjected assembles only the named top-level columns (nil = all):
// the projected read path of a columnar store. Unprojected fields read
// as NULL; row count, order, sequences and change types are unaffected.
func (r *Reader) RowsProjected(s *schema.Schema, projection map[string]bool) ([]rowenc.Stamped, error) {
	// Assemble only the leaves present in the file; columns for fields
	// added by schema evolution are absent and read as NULL.
	present := make(map[string]bool, len(r.order))
	for _, p := range r.order {
		if projection != nil {
			top := p
			if i := indexByte(p, '.'); i >= 0 {
				top = p[:i]
			}
			if !projection[top] {
				continue
			}
		}
		present[p] = true
	}
	var cols []*columnData
	for _, p := range r.order {
		if !present[p] {
			continue
		}
		cd, err := r.columns[p].data()
		if err != nil {
			return nil, err
		}
		cols = append(cols, cd)
	}
	fileSchema, err := restrictSchema(s, present)
	if err != nil {
		return nil, err
	}
	out := make([]rowenc.Stamped, 0, r.rowCount)
	if len(cols) == 0 {
		// Nothing projected: emit bare rows (COUNT(*)-style scans still
		// need row multiplicity, sequences and change types).
		for i := int64(0); i < r.rowCount; i++ {
			row := expandRow(s, &schema.Schema{}, schema.Row{})
			row.Change = schema.ChangeType(r.changes[i])
			out = append(out, rowenc.Stamped{Row: row, Seq: r.seqs[i]})
		}
		return out, nil
	}
	a := newAssembler(fileSchema, cols)
	for i := int64(0); i < r.rowCount; i++ {
		row, ok, err := a.nextRow()
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("%w: columns exhausted at row %d of %d", ErrCorrupt, i, r.rowCount)
		}
		// Re-expand to the full schema arity: missing trailing fields NULL.
		row = expandRow(s, fileSchema, row)
		row.Change = schema.ChangeType(r.changes[i])
		out = append(out, rowenc.Stamped{Row: row, Seq: r.seqs[i]})
	}
	if !a.exhausted() {
		return nil, fmt.Errorf("%w: trailing column entries after %d rows", ErrCorrupt, r.rowCount)
	}
	return out, nil
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// restrictSchema returns s limited to top-level fields all of whose
// leaves are present in the file (fields added after the file was
// written are dropped and re-added as NULL by expandRow).
func restrictSchema(s *schema.Schema, present map[string]bool) (*schema.Schema, error) {
	out := &schema.Schema{
		PrimaryKey:     s.PrimaryKey,
		PartitionField: s.PartitionField,
		ClusterBy:      s.ClusterBy,
		Version:        s.Version,
	}
	for _, f := range s.Fields {
		leaves := (&schema.Schema{Fields: []*schema.Field{f}}).Leaves()
		all, any := true, false
		for _, l := range leaves {
			if present[l.Path] {
				any = true
			} else {
				all = false
			}
		}
		if any && !all {
			return nil, fmt.Errorf("%w: field %q partially present", ErrSchemaMismatch, f.Name)
		}
		if all {
			out.Fields = append(out.Fields, f)
		}
	}
	return out, nil
}

// expandRow maps a row assembled under fileSchema back to full's arity.
func expandRow(full, fileSchema *schema.Schema, row schema.Row) schema.Row {
	if len(fileSchema.Fields) == len(full.Fields) {
		return row
	}
	values := make([]schema.Value, len(full.Fields))
	j := 0
	for i, f := range full.Fields {
		if j < len(fileSchema.Fields) && fileSchema.Fields[j].Name == f.Name {
			values[i] = row.Values[j]
			j++
		} else {
			values[i] = schema.Null()
		}
	}
	return schema.Row{Values: values}
}
