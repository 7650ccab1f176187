// Column payloads: the one byte format a ROS value page and a
// record-batch column share, and the only code that reads or writes it.
//
//	PLAIN  rows values back to back, each in the rowenc single-value codec
//	DICT   uvarint n | n distinct values | one uvarint dictionary index per row
//	RLE    (uvarint run length | value) until the runs cover rows
//
// On disk and on the wire a payload is preceded by its encoding byte and
// its uvarint byte length; AppendColumn writes all three. The codec owns
// the format; which encoding a column gets is its caller's policy — the
// ROS writer's dictionary rule, EncodeRecordBatch's content chooser — and
// reaches the codec as the Vector the caller built.
package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"

	"vortex/internal/bin"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// AppendColumn appends `encoding | uvarint length | payload` for the
// selected rows of v, keeping v's encoding: a DICT vector emits a
// dictionary compacted to the selection plus the selected codes, an RLE
// vector its runs intersected with the selection, a typed vector its
// rows straight from their unboxed payloads, sized first so they are
// written once, in place.
func AppendColumn(dst []byte, v *Vector, sel Selection) []byte {
	c := frameColumn(v, sel)
	dst = slices.Grow(dst, c.len())
	return c.append(dst, v, sel)
}

// framedColumn is one column of a frame, sized before it is written: a
// typed column's payload is written from its vector only once the frame
// has room for it, any other column's is built to be sized.
type framedColumn struct {
	enc     byte
	payload []byte // nil for a typed column
	size    int    // the payload's length
}

func frameColumn(v *Vector, sel Selection) framedColumn {
	if v.Typed() {
		return framedColumn{enc: BatchEncPlain, size: v.typedSize(sel)}
	}
	enc, p := ColumnPayload(v, sel)
	return framedColumn{enc: enc, payload: p, size: len(p)}
}

// len is the column's framed length: encoding byte, length, payload.
func (c framedColumn) len() int { return 1 + uvarintLen(c.size) + c.size }

// append writes the framed column; v and sel are those it was sized for.
func (c framedColumn) append(dst []byte, v *Vector, sel Selection) []byte {
	dst = append(dst, c.enc)
	dst = binary.AppendUvarint(dst, uint64(c.size))
	if v.Typed() {
		return v.appendTyped(dst, sel)
	}
	return append(dst, c.payload...)
}

func uvarintLen(n int) int { return (bits.Len64(uint64(n)|1) + 6) / 7 }

// ColumnPayload returns the encoding byte and bare payload AppendColumn
// frames: for a caller that weighs one encoding's bytes against
// another's, or stores the payload under a framing of its own.
func ColumnPayload(v *Vector, sel Selection) (byte, []byte) {
	n := v.Len()
	nSel := sel.Count(n)
	var p []byte
	switch {
	case nSel == 0:
		return BatchEncPlain, nil
	case v.Enc == BatchEncDict:
		// Compact the dictionary to the codes the selection actually
		// uses (the decoder requires dictLen <= rows), encoding each
		// entry once, in first-use order. If compaction leaves as many
		// entries as rows, every row brought its own entry: those
		// encodings in order are the PLAIN payload, which is no bigger.
		remap := make([]int32, len(v.Dict))
		for i := range remap {
			remap[i] = -1
		}
		var entries []byte
		dictLen := int32(0)
		codes := make([]uint32, nSel)
		for k := range codes {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			c := v.Codes[i]
			if remap[c] < 0 {
				remap[c] = dictLen
				dictLen++
				entries = rowenc.AppendValue(entries, v.Dict[c])
			}
			codes[k] = uint32(remap[c])
		}
		if int(dictLen) == nSel {
			return BatchEncPlain, entries
		}
		p = binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen32+len(entries)+2*nSel), uint64(dictLen))
		p = append(p, entries...)
		for _, c := range codes {
			p = binary.AppendUvarint(p, uint64(c))
		}
		return BatchEncDict, p
	case v.Enc == BatchEncRLE:
		// Re-run the runs over the selection: adjacent selected rows in
		// the same source run stay one run.
		var runs []Run
		ri, start := 0, int32(0)
		for k := 0; k < nSel; k++ {
			i := int32(k)
			if sel != nil {
				i = sel[k]
			}
			prev := ri
			for ri < len(v.Runs) && i >= start+v.Runs[ri].Len {
				start += v.Runs[ri].Len
				ri++
			}
			if len(runs) > 0 && ri == prev && ri < len(v.Runs) {
				runs[len(runs)-1].Len++
				continue
			}
			val := schema.Null()
			if ri < len(v.Runs) {
				val = v.Runs[ri].Value
			}
			runs = append(runs, Run{Len: 1, Value: val})
		}
		for _, r := range runs {
			p = binary.AppendUvarint(p, uint64(r.Len))
			p = rowenc.AppendValue(p, r.Value)
		}
		return BatchEncRLE, p
	}
	if v.Typed() {
		return BatchEncPlain, v.appendTyped(make([]byte, 0, v.typedSize(sel)), sel)
	}
	for k := 0; k < nSel; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		p = rowenc.AppendValue(p, v.Values[i])
	}
	return BatchEncPlain, p
}

// typedSize is the length of the selected rows of a typed vector in
// the rowenc single-value codec. A column with no NULLs is sized in one
// loop for its kind; rowSize decides each row of one that has them.
func (v *Vector) typedSize(sel Selection) int {
	n := sel.Count(v.Len())
	switch {
	case v.Valid != nil:
	case v.Kind == schema.KindFloat64:
		return n * rowenc.FloatLen
	case v.Kind == schema.KindBool:
		return n * 2
	case v.Kind != schema.KindString && v.Kind != schema.KindJSON:
		size := 0
		for k, ints := 0, v.Ints; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			size += rowenc.IntLen(schema.KindInt64, ints[i])
		}
		return size
	}
	size := 0
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		size += v.rowSize(i)
	}
	return size
}

func (v *Vector) rowSize(i int) int {
	switch {
	case !v.Valid.Has(i):
		return 1
	case v.Kind == schema.KindFloat64:
		return rowenc.FloatLen
	case v.Kind == schema.KindString || v.Kind == schema.KindJSON:
		return rowenc.StringLen(v.Str[v.Offs[i]:v.Offs[i+1]])
	}
	return rowenc.IntLen(v.Kind, v.Ints[i])
}

// appendTyped appends the selected rows of a typed vector in the rowenc
// single-value codec: the bytes AppendValue writes for their Values. An
// integer column with no NULLs is written in one loop for its kind;
// appendRow decides each row of any other.
func (v *Vector) appendTyped(dst []byte, sel Selection) []byte {
	n := sel.Count(v.Len())
	if v.Valid == nil && v.Kind != schema.KindFloat64 && v.Kind != schema.KindString && v.Kind != schema.KindJSON {
		for k, kind, ints := 0, v.Kind, v.Ints; k < n; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			dst = rowenc.AppendInt(dst, kind, ints[i])
		}
		return dst
	}
	for k := 0; k < n; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		dst = v.appendRow(dst, i)
	}
	return dst
}

func (v *Vector) appendRow(dst []byte, i int) []byte {
	switch {
	case !v.Valid.Has(i):
		return append(dst, rowenc.TagNull)
	case v.Kind == schema.KindFloat64:
		return rowenc.AppendFloat(dst, v.Floats[i])
	case v.Kind == schema.KindString || v.Kind == schema.KindJSON:
		return rowenc.AppendString(dst, v.Kind, v.Str[v.Offs[i]:v.Offs[i+1]])
	}
	return rowenc.AppendInt(dst, v.Kind, v.Ints[i])
}

// DecodeColumn decodes a payload of rows rows into a vector in encoded
// form: DICT keeps its codes and RLE its runs, nothing is expanded. A
// PLAIN or DICT payload spends at least one byte per row, so a row count
// past the payload length is refused before anything is sized by it, and
// runs are appended as their bytes arrive. Dictionary indexes and run
// lengths are range-checked; bytes left over are an error. Every error
// wraps ErrBatchCorrupt.
func DecodeColumn(name string, enc byte, payload []byte, rows int) (Vector, error) {
	v := Vector{Name: name, Enc: enc}
	if rows < 0 || rows > math.MaxInt32 || (enc != BatchEncRLE && rows > len(payload)) {
		return v, fmt.Errorf("%w: %d rows in a %d-byte payload", ErrBatchCorrupt, rows, len(payload))
	}
	r := bin.NewReader(payload)
	switch enc {
	case BatchEncPlain:
		// Every row spends a tag byte: the rest bounds a string column.
		b := NewColumnBuilder(name, rows, len(payload)-rows)
		b.Read(r, rows)
		v = b.Vector()
	case BatchEncRLE:
		// The runs' STRING and JSON bytes are gathered into one string
		// that their values share, not copied into one string each.
		type strRun struct {
			run, end int
			json     bool
		}
		var str strings.Builder
		var strRuns []strRun
		for covered := 0; covered < rows; {
			runLen := r.Uvarint()
			if runLen == 0 || runLen > uint64(rows-covered) {
				r.Fail(fmt.Errorf("run length %d with %d rows left", runLen, rows-covered))
				break
			}
			var val schema.Value
			if tag, _ := r.Peek(); tag == byte(schema.KindString) || tag == byte(schema.KindJSON) {
				if str.Cap() == 0 {
					str.Grow(r.Len()) // the rest of the payload bounds the bytes
				}
				r.Byte()
				str.Write(r.Block())
				strRuns = append(strRuns, strRun{len(v.Runs), str.Len(), tag == byte(schema.KindJSON)})
			} else {
				val = rowenc.ReadValue(r)
			}
			v.Runs = append(v.Runs, Run{Len: int32(runLen), Value: val})
			covered += int(runLen)
		}
		all, start := str.String(), 0
		for _, sr := range strRuns {
			if sr.json {
				v.Runs[sr.run].Value = schema.RawJSON(all[start:sr.end])
			} else {
				v.Runs[sr.run].Value = schema.String(all[start:sr.end])
			}
			start = sr.end
		}
	case BatchEncDict:
		// Every entry and every code spends at least a byte.
		dictLen := r.Count(1)
		if dictLen > rows {
			return v, fmt.Errorf("%w: %d dictionary entries for %d rows", ErrBatchCorrupt, dictLen, rows)
		}
		v.Dict = make([]schema.Value, dictLen)
		for i := range v.Dict {
			v.Dict[i] = rowenc.ReadValue(r)
		}
		v.Codes = make([]uint32, rows)
		for i := range v.Codes {
			c := r.Uvarint()
			if c >= uint64(dictLen) {
				r.Fail(fmt.Errorf("dictionary index %d of %d", c, dictLen))
				break
			}
			v.Codes[i] = uint32(c)
		}
	default:
		return v, fmt.Errorf("%w: encoding 0x%02x", ErrBatchCorrupt, enc)
	}
	if r.Err() != nil {
		return v, fmt.Errorf("%w: %v", ErrBatchCorrupt, r.Err())
	}
	if r.Len() != 0 {
		return v, fmt.Errorf("%w: %d trailing payload bytes", ErrBatchCorrupt, r.Len())
	}
	return v, nil
}

// ColumnBuilder builds one PLAIN column of a known row count a value at
// a time, in one pass. It holds the one rule by which a PLAIN column is
// typed, for DecodeColumn's PLAIN case and a WOS block's columns alike:
// the column stays typed while every value is NULL or of the first
// non-NULL value's kind. At a value of a second kind, of a kind a typed
// vector does not hold (BYTES, STRUCT, a list), or a string that would
// take Str past MaxInt32 bytes, the rows read so far are promoted to
// Values and the rest are read with rowenc.ReadValue. The typed reads
// follow rowenc's scalar layouts byte for byte and refuse what ReadValue
// refuses; FuzzDecodeColumn holds them to it. Whatever the builder
// keeps is copied out of the bytes it reads, so a caller may reuse
// them once Read returns.
type ColumnBuilder struct {
	v        Vector
	rows     int             // the column's row count
	n        int             // rows added so far
	promoted bool            // v holds Values
	str      strings.Builder // typed STRING/JSON: Str as it grows
	strMax   int             // the most bytes Str can hold
}

// NewColumnBuilder returns a builder for a column of rows rows whose
// strings, if it holds strings, take no more than strMax bytes: a bound
// the caller knows from its input. Str is sized to what the rows read
// so far project over the whole column, up to strMax, and regrown by
// the same projection, not by doubling.
func NewColumnBuilder(name string, rows, strMax int) *ColumnBuilder {
	return &ColumnBuilder{v: Vector{Name: name, Enc: BatchEncPlain}, rows: rows, strMax: strMax}
}

// AppendNulls adds n NULL rows.
func (b *ColumnBuilder) AppendNulls(n int) {
	v := &b.v
	for end := b.n + n; b.n < end; b.n++ {
		if b.promoted {
			v.Values[b.n] = schema.Null()
			continue
		}
		if v.Valid == nil {
			v.Valid = AllValid(b.rows)
		}
		v.Valid.SetNull(b.n)
		if v.Offs != nil {
			v.Offs[b.n+1] = int32(b.str.Len())
		}
	}
}

// Read reads the next n values, each in the rowenc single-value codec,
// from r. A failure is left in r; the builder is then not to be used.
func (b *ColumnBuilder) Read(r *bin.Reader, n int) {
	v := &b.v
	for end := b.n + n; b.n < end; {
		if b.promoted {
			for ; b.n < end; b.n++ {
				v.Values[b.n] = rowenc.ReadValue(r)
			}
			return
		}
		tag, ok := r.Peek()
		switch {
		case !ok:
			r.Byte() // records the short read
			return
		case tag == rowenc.TagNull:
			r.Byte()
			b.AppendNulls(1)
			continue
		case v.Typed() && tag == byte(v.Kind):
		case !v.Typed() && typedKind(schema.Kind(tag)):
			v.Kind = schema.Kind(tag)
			switch v.Kind {
			case schema.KindFloat64:
				v.Floats = make([]float64, b.rows)
			case schema.KindString, schema.KindJSON:
				v.Offs = make([]int32, b.rows+1)
			default:
				v.Ints = make([]int64, b.rows)
			}
		default:
			b.promote()
			continue
		}
		b.readRun(r, end)
	}
}

// readRun reads the values of v's kind from row b.n on, up to the first
// that is not one or row end.
func (b *ColumnBuilder) readRun(r *bin.Reader, end int) {
	v, i := &b.v, b.n
	tag := byte(v.Kind)
	next := func() bool {
		t, ok := r.Peek()
		return i < end && ok && t == tag
	}
	switch v.Kind {
	case schema.KindFloat64:
		for floats := v.Floats; next(); i++ {
			r.Byte()
			floats[i] = math.Float64frombits(r.Uint64())
		}
	case schema.KindString, schema.KindJSON:
		for offs := v.Offs; next(); i++ {
			r.Byte()
			s := r.Block()
			if b.str.Cap()-b.str.Len() < len(s) {
				if b.str.Len()+len(s) > math.MaxInt32 {
					val := schema.String(string(s))
					if v.Kind == schema.KindJSON {
						val = schema.RawJSON(string(s))
					}
					b.n = i
					b.promote()
					v.Values[i] = val
					b.n++
					return
				}
				b.grow(len(s), i)
			}
			b.str.Write(s)
			offs[i+1] = int32(b.str.Len())
		}
	case schema.KindBool:
		for ints := v.Ints; next(); i++ {
			r.Byte()
			c := r.Byte()
			if c > 1 {
				r.Fail(fmt.Errorf("bool byte %d", c))
			}
			ints[i] = int64(c)
		}
	default: // INT64, TIMESTAMP, DATE, NUMERIC: the one loop a page's runs spend most in
		i += r.TaggedVarints(tag, v.Ints[i:end])
	}
	b.n = i
}

// grow makes room in Str for extra more bytes at row i: what the bytes
// of rows 0..i project over the column, with an eighth to spare, but
// never past strMax or MaxInt32.
func (b *ColumnBuilder) grow(extra, i int) {
	used := b.str.Len() + extra
	want := used * b.rows / (i + 1)
	want = max(min(want+want/8, b.strMax, math.MaxInt32), used)
	b.str.Grow(want - b.str.Len())
}

// promote turns the rows read so far into Values, the rest to be read.
func (b *ColumnBuilder) promote() {
	v := &b.v
	v.Str = b.str.String()
	vals := make([]schema.Value, b.rows)
	for i := 0; i < b.n; i++ {
		if v.Typed() {
			vals[i] = v.ValueAt(i)
		} else {
			vals[i] = schema.Null()
		}
	}
	*v = Vector{Name: v.Name, Enc: BatchEncPlain, Values: vals}
	b.promoted = true
}

// Vector returns the column built: typed, or Values when it was
// promoted or every row is NULL.
func (b *ColumnBuilder) Vector() Vector {
	if !b.promoted && !b.v.Typed() { // every row NULL, or none
		b.promote()
	}
	if b.v.Typed() {
		b.v.Str = b.str.String()
	}
	return b.v
}

// BuildDict numbers the distinct values of vals in first-seen order,
// equality being that of the canonical rowenc encoding. It gives up —
// ok false — at the first value that would make the dictionary larger
// than maxDistinct, so a caller whose policy caps the dictionary pays
// for no more of a high-cardinality column than the cap.
func BuildDict(vals []schema.Value, maxDistinct int) (dict []schema.Value, codes []uint32, ok bool) {
	index := make(map[string]uint32)
	codes = make([]uint32, len(vals))
	var first []int32 // the row each dictionary entry first appears at
	var key []byte
	for i, v := range vals {
		key = rowenc.AppendValue(key[:0], v)
		c, seen := index[string(key)]
		if !seen {
			if len(first) >= maxDistinct {
				return nil, nil, false
			}
			c = uint32(len(first))
			index[string(key)] = c
			first = append(first, int32(i))
		}
		codes[i] = c
	}
	dict = make([]schema.Value, len(first))
	for c, i := range first {
		dict[c] = vals[i]
	}
	return dict, codes, true
}

// chooseVector is EncodeRecordBatch's policy: RLE when values average
// runs of at least two, DICT when at most half the values are distinct,
// PLAIN otherwise. It depends on the content alone, so encode∘decode is
// a fixpoint.
func chooseVector(name string, vals []schema.Value) Vector {
	n := len(vals)
	if n > 0 {
		if runs, ok := BuildRuns(vals, n/2); ok {
			return RLEVector(name, runs)
		}
		if dict, codes, ok := BuildDict(vals, n/2); ok {
			return DictVector(name, dict, codes)
		}
	}
	return PlainVector(name, vals)
}

// BuildRuns groups vals into runs of neighbours equal under the
// canonical rowenc encoding — BuildDict's equality. It gives up — ok
// false — at the first run past maxRuns, and builds the runs only once
// it knows there are few enough.
func BuildRuns(vals []schema.Value, maxRuns int) (runs []Run, ok bool) {
	var starts []int32 // first row of each run
	var prev, cur []byte
	for i, v := range vals {
		cur = rowenc.AppendValue(cur[:0], v)
		if i > 0 && bytes.Equal(cur, prev) {
			continue
		}
		if len(starts) >= maxRuns {
			return nil, false
		}
		starts = append(starts, int32(i))
		prev, cur = cur, prev
	}
	runs = make([]Run, len(starts))
	for k, s := range starts {
		end := int32(len(vals))
		if k+1 < len(starts) {
			end = starts[k+1]
		}
		runs[k] = Run{Len: end - s, Value: vals[s]}
	}
	return runs, true
}
