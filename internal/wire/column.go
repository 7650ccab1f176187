// Column payloads: the one byte format a ROS value page, a WOS block's
// column and a record-batch column share, and the only code that reads
// or writes it.
//
//	PLAIN  rows values back to back, each in the rowenc single-value codec
//	DICT   uvarint n | n distinct values | one uvarint dictionary index per row
//	RLE    (uvarint run length | value) until the runs cover rows
//	TYPED  kind | flags | [validity bitmap] | fixed-width values
//
// TYPED holds a typed PLAIN vector (vector.go) as buffers: its kind
// byte; a flags byte whose one bit says a validity bitmap follows, one
// bit per row from the least significant, none set past the last row;
// then 8 little-endian bytes per INT64, TIMESTAMP, DATE, NUMERIC or
// FLOAT64 row and 1 per BOOL row, or, for STRING and JSON, a 4-byte
// little-endian end offset per row followed by the rows' bytes. A NULL
// row holds 0, or no bytes. Only a record-batch frame carries TYPED:
// AppendColumn writes it for every typed vector, while the ROS writer
// hands the codec Scalars (scalars.go), which write PLAIN, DICT and RLE
// payloads only, and AppendBlock values, so ROS value pages and WOS
// blocks stay PLAIN, DICT and RLE.
//
// On disk and on the wire a payload is preceded by its encoding byte and
// its uvarint byte length; AppendColumn writes all three. The codec owns
// the format; which encoding a column gets is its caller's policy — the
// ROS writer's dictionary rule, EncodeRecordBatch's content chooser, a
// scan's typed vectors — and reaches the codec as the Vector or the
// Scalars the caller built.
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
// vector its runs intersected with the selection, a typed vector a
// TYPED payload, sized first so it is written once, in place.
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
		return framedColumn{enc: BatchEncTyped, size: v.typedLen(sel)}
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
// another's, or stores the payload under a framing of its own. Each
// payload is built into a buffer of the length it will have.
func ColumnPayload(v *Vector, sel Selection) (byte, []byte) {
	n := v.Len()
	nSel := sel.Count(n)
	switch {
	case v.Typed():
		return BatchEncTyped, v.appendTyped(make([]byte, 0, v.typedLen(sel)), sel)
	case nSel == 0:
		return BatchEncPlain, nil
	case v.Enc == BatchEncDict:
		// Compact the dictionary to the codes the selection actually
		// uses (the decoder requires dictLen <= rows), numbering each
		// entry once, in first-use order. If compaction leaves as many
		// entries as rows, every row brought its own entry: those
		// encodings in order are the PLAIN payload, which is no bigger.
		remap := make([]int32, len(v.Dict))
		for i := range remap {
			remap[i] = -1
		}
		used := make([]uint32, 0, min(nSel, len(v.Dict))) // source codes in first-use order
		codes := make([]uint32, nSel)
		size := 0
		for k := range codes {
			c := v.Codes[selRow(sel, k)]
			if remap[c] < 0 {
				remap[c] = int32(len(used))
				used = append(used, c)
				size += rowenc.ValueLen(v.Dict[c])
			}
			codes[k] = uint32(remap[c])
		}
		plain := len(used) == nSel
		if !plain {
			size += uvarintLen(len(used))
			for _, c := range codes {
				size += uvarintLen(int(c))
			}
		}
		p := make([]byte, 0, size)
		if !plain {
			p = binary.AppendUvarint(p, uint64(len(used)))
		}
		for _, c := range used {
			p = rowenc.AppendValue(p, v.Dict[c])
		}
		if plain {
			return BatchEncPlain, p
		}
		for _, c := range codes {
			p = binary.AppendUvarint(p, uint64(c))
		}
		return BatchEncDict, p
	case v.Enc == BatchEncRLE:
		// Re-run the runs over the selection: adjacent selected rows in
		// the same source run stay one run, so there are no more runs
		// than selected rows or source runs.
		runs := make([]Run, 0, min(nSel, len(v.Runs)))
		ri, start := 0, int32(0)
		for k := 0; k < nSel; k++ {
			i := int32(selRow(sel, k))
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
		size := 0
		for _, r := range runs {
			size += uvarintLen(int(r.Len)) + rowenc.ValueLen(r.Value)
		}
		p := make([]byte, 0, size)
		for _, r := range runs {
			p = binary.AppendUvarint(p, uint64(r.Len))
			p = rowenc.AppendValue(p, r.Value)
		}
		return BatchEncRLE, p
	}
	size := 0
	for k := 0; k < nSel; k++ {
		size += rowenc.ValueLen(v.Values[selRow(sel, k)])
	}
	p := make([]byte, 0, size)
	for k := 0; k < nSel; k++ {
		p = rowenc.AppendValue(p, v.Values[selRow(sel, k)])
	}
	return BatchEncPlain, p
}

// TYPED payload flags: the one flag says a validity bitmap follows.
const typedValid = byte(1)

// typedLen is the length of the TYPED payload of the selected rows of a
// typed vector.
func (v *Vector) typedLen(sel Selection) int {
	n := sel.Count(v.Len())
	size := 2
	if v.Valid != nil {
		size += (n + 7) / 8
	}
	switch v.Kind {
	case schema.KindBool:
		return size + n
	case schema.KindString, schema.KindJSON:
		size += 4 * n
		if sel == nil {
			return size + int(v.Offs[n]-v.Offs[0])
		}
		for _, i := range sel {
			size += int(v.Offs[i+1] - v.Offs[i])
		}
		return size
	}
	return size + 8*n
}

// appendTyped appends the TYPED payload of the selected rows of a typed
// vector, in one loop per kind. A NULL row is written as the vector
// holds it — 0, or no bytes — which the decoder requires.
func (v *Vector) appendTyped(dst []byte, sel Selection) []byte {
	n := sel.Count(v.Len())
	var out []byte
	if v.Valid == nil {
		dst = append(dst, byte(v.Kind), 0)
	} else {
		dst = append(dst, byte(v.Kind), typedValid)
		dst = appendValidity(dst, v.Valid, n, sel)
	}
	switch v.Kind {
	case schema.KindBool:
		out, dst = extend(dst, n)
		for k := range out {
			out[k] = byte(v.Ints[selRow(sel, k)])
		}
		return dst
	case schema.KindFloat64:
		out, dst = extend(dst, 8*n)
		for k := 0; k < n; k++ {
			binary.LittleEndian.PutUint64(out[8*k:], math.Float64bits(v.Floats[selRow(sel, k)]))
		}
		return dst
	case schema.KindString, schema.KindJSON:
		out, dst = extend(dst, 4*n)
		offs := v.Offs
		if sel == nil {
			for k := 0; k < n; k++ {
				binary.LittleEndian.PutUint32(out[4*k:], uint32(offs[k+1]-offs[0]))
			}
			return append(dst, v.Str[offs[0]:offs[n]]...)
		}
		end := int32(0)
		for k, i := range sel {
			end += offs[i+1] - offs[i]
			binary.LittleEndian.PutUint32(out[4*k:], uint32(end))
		}
		for _, i := range sel {
			dst = append(dst, v.Str[offs[i]:offs[i+1]]...)
		}
		return dst
	}
	out, dst = extend(dst, 8*n)
	if sel == nil {
		for k, x := range v.Ints[:n] {
			binary.LittleEndian.PutUint64(out[8*k:], uint64(x))
		}
		return dst
	}
	for k, i := range sel {
		binary.LittleEndian.PutUint64(out[8*k:], uint64(v.Ints[i]))
	}
	return dst
}

// selRow is the k-th selected row (nil sel: every row).
func selRow(sel Selection, k int) int {
	if sel == nil {
		return k
	}
	return int(sel[k])
}

// extend lengthens dst by n bytes and returns them with it.
func extend(dst []byte, n int) (out, ext []byte) {
	at := len(dst)
	ext = slices.Grow(dst, n)[:at+n]
	return ext[at:], ext
}

// appendValidity appends the validity of the n selected rows, one bit
// per row from the least significant, with no bit set past the last.
func appendValidity(dst []byte, valid Bitmap, n int, sel Selection) []byte {
	out, dst := extend(dst, (n+7)/8)
	if sel == nil {
		for j := range out {
			out[j] = byte(valid[j>>3] >> (8 * (j & 7)))
		}
		if n&7 != 0 {
			out[len(out)-1] &= 1<<(n&7) - 1
		}
		return dst
	}
	clear(out)
	for k, i := range sel {
		if valid.Has(int(i)) {
			out[k>>3] |= 1 << (k & 7)
		}
	}
	return dst
}

// decodeTyped decodes a TYPED payload of rows rows into a typed PLAIN
// vector, in one loop per kind. It refuses a kind a typed vector does
// not hold, an unknown flag, validity bits past the last row, a body
// longer or shorter than the rows need, a BOOL byte other than 0 or 1,
// string end offsets that decrease or end anywhere but at the body's
// end, and a NULL row that holds a value or bytes. Every slice is sized
// only once the payload is known to hold it.
func decodeTyped(name string, p []byte, rows int) (Vector, error) {
	v := Vector{Name: name, Enc: BatchEncPlain}
	if len(p) < 2 || !typedKind(schema.Kind(p[0])) || p[1]&^typedValid != 0 {
		return v, fmt.Errorf("TYPED kind and flags %x", p[:min(len(p), 2)])
	}
	v.Kind = schema.Kind(p[0])
	body := p[2:]
	if p[1] == typedValid {
		m := (rows + 7) / 8
		if len(body) < m {
			return v, fmt.Errorf("%d-byte validity bitmap for %d rows", len(body), rows)
		}
		if rows&7 != 0 && body[m-1]>>(rows&7) != 0 {
			return v, fmt.Errorf("validity bits past row %d", rows)
		}
		v.Valid = make(Bitmap, (rows+63)/64)
		for j, b := range body[:m] {
			v.Valid[j>>3] |= uint64(b) << (8 * (j & 7))
		}
		body = body[m:]
	}
	width := 8
	switch v.Kind {
	case schema.KindBool:
		width = 1
	case schema.KindString, schema.KindJSON:
		width = 4
	}
	if len(body) < width*rows || (width != 4 && len(body) != width*rows) {
		return v, fmt.Errorf("%d-byte body for %d rows of %v", len(body), rows, v.Kind)
	}
	switch v.Kind {
	case schema.KindBool:
		v.Ints = make([]int64, rows)
		for i, b := range body {
			if b > 1 {
				return v, fmt.Errorf("bool byte %d", b)
			}
			v.Ints[i] = int64(b)
		}
	case schema.KindFloat64:
		v.Floats = make([]float64, rows)
		for i := range v.Floats {
			v.Floats[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	case schema.KindString, schema.KindJSON:
		ends, str := body[:4*rows], body[4*rows:]
		if len(str) > math.MaxInt32 {
			return v, fmt.Errorf("%d string bytes", len(str))
		}
		// Ends that never decrease and stop at the body's end keep every
		// row inside it.
		v.Offs = make([]int32, rows+1)
		end := uint32(0)
		for i := 0; i < rows; i++ {
			e := binary.LittleEndian.Uint32(ends[4*i:])
			if e < end {
				return v, fmt.Errorf("row %d ends at %d, before %d", i, e, end)
			}
			end, v.Offs[i+1] = e, int32(e)
		}
		if int(end) != len(str) {
			return v, fmt.Errorf("rows end at %d of %d string bytes", end, len(str))
		}
		v.Str = string(str)
	default:
		v.Ints = make([]int64, rows)
		for i := range v.Ints {
			v.Ints[i] = int64(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	// A NULL row holds 0, or no bytes, as the writer writes it.
	for w, word := range v.Valid {
		for nulls := ^word; nulls != 0; nulls &= nulls - 1 {
			i := w*64 + bits.TrailingZeros64(nulls)
			if i >= rows {
				break
			}
			if v.nullHolds(i) {
				return v, fmt.Errorf("a value at NULL row %d", i)
			}
		}
	}
	return v, nil
}

// nullHolds reports whether row i, NULL, holds anything but 0 or no
// bytes.
func (v *Vector) nullHolds(i int) bool {
	switch v.Kind {
	case schema.KindFloat64:
		return math.Float64bits(v.Floats[i]) != 0
	case schema.KindString, schema.KindJSON:
		return v.Offs[i+1] != v.Offs[i]
	}
	return v.Ints[i] != 0
}

// DecodeColumn decodes a payload of rows rows into a vector in encoded
// form: DICT keeps its codes and RLE its runs, nothing is expanded, and
// PLAIN and TYPED both come back as a typed PLAIN vector where the
// column is of one scalar kind. A PLAIN, DICT or TYPED payload spends
// at least one byte per row, so a row count
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
	case BatchEncTyped:
		typed, err := decodeTyped(name, payload, rows)
		if err != nil {
			return typed, fmt.Errorf("%w: %v", ErrBatchCorrupt, err)
		}
		return typed, nil
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

// ColumnBuilder builds one PLAIN column of a known row count in one
// pass, from encoded values or from vectors (AppendVector). It holds
// the one rule by which a PLAIN column is typed, for DecodeColumn's
// PLAIN case, a WOS block's columns and a conversion group's columns
// alike: the column stays typed while every value is NULL or of the
// first non-NULL value's kind. At a value of a second kind, of a kind a typed
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
			b.setKind(schema.Kind(tag))
		default:
			b.promote()
			continue
		}
		b.readRun(r, end)
	}
}

// setKind types the column, NULL so far, as of kind k.
func (b *ColumnBuilder) setKind(k schema.Kind) {
	v := &b.v
	v.Kind = k
	switch k {
	case schema.KindFloat64:
		v.Floats = make([]float64, b.rows)
	case schema.KindString, schema.KindJSON:
		v.Offs = make([]int32, b.rows+1)
	default:
		v.Ints = make([]int64, b.rows)
	}
}

// AppendVector adds the selected rows of src (nil sel: every row), a
// vector of any encoding, by the same rule: a typed vector of the
// column's kind, or the first typed vector whose selected rows are not
// all NULL, is copied buffer to buffer, and every other row is added as
// the value it holds, promoting the column where that value is of
// another kind.
func (b *ColumnBuilder) AppendVector(src *Vector, sel Selection) {
	v := &b.v
	n := sel.Count(src.Len())
	if !b.promoted && src.Enc == BatchEncPlain && src.Typed() && (!v.Typed() || v.Kind == src.Kind) {
		if !v.Typed() && !src.anyValid(sel, n) {
			b.AppendNulls(n)
			return
		}
		if !v.Typed() {
			b.setKind(src.Kind)
		}
		if b.appendTyped(src, sel) {
			return
		}
	}
	switch {
	case b.promoted:
		src.LoadValues(v.Values[b.n:b.n+n], 1, sel)
		b.n += n
	case src.Enc == BatchEncRLE:
		// Selections ascend, so one forward walk over the runs covers
		// every selected row.
		ri, start := 0, int32(0)
		for k := 0; k < n; k++ {
			i := int32(selRow(sel, k))
			for i >= start+src.Runs[ri].Len {
				start += src.Runs[ri].Len
				ri++
			}
			b.appendValue(src.Runs[ri].Value)
		}
	default:
		for k := 0; k < n; k++ {
			b.appendValue(src.ValueAt(selRow(sel, k)))
		}
	}
}

// anyValid reports whether any of the n selected rows of a typed vector
// is not NULL.
func (v *Vector) anyValid(sel Selection, n int) bool {
	for k := 0; k < n; k++ {
		if v.Valid.Has(selRow(sel, k)) {
			return true
		}
	}
	return false
}

// appendTyped copies the selected rows of src, a typed vector of the
// column's kind. It adds nothing and returns false when their strings
// would take Str past MaxInt32 bytes.
func (b *ColumnBuilder) appendTyped(src *Vector, sel Selection) bool {
	v := &b.v
	n := sel.Count(src.Len())
	switch v.Kind {
	case schema.KindFloat64:
		for k := 0; k < n; k++ {
			v.Floats[b.n+k] = src.Floats[selRow(sel, k)]
		}
	case schema.KindString, schema.KindJSON:
		size := 0
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			size += int(src.Offs[i+1] - src.Offs[i])
		}
		if b.str.Cap()-b.str.Len() < size {
			if b.str.Len()+size > math.MaxInt32 {
				return false
			}
			b.grow(size, b.n+n-1)
		}
		for k := 0; k < n; k++ {
			i := selRow(sel, k)
			b.str.WriteString(src.Str[src.Offs[i]:src.Offs[i+1]])
			v.Offs[b.n+k+1] = int32(b.str.Len())
		}
	default:
		for k := 0; k < n; k++ {
			v.Ints[b.n+k] = src.Ints[selRow(sel, k)]
		}
	}
	for k := 0; src.Valid != nil && k < n; k++ {
		if !src.Valid.Has(selRow(sel, k)) {
			if v.Valid == nil {
				v.Valid = AllValid(b.rows)
			}
			v.Valid.SetNull(b.n + k)
		}
	}
	b.n += n
	return true
}

// appendValue adds one row holding x.
func (b *ColumnBuilder) appendValue(x schema.Value) {
	v := &b.v
	switch {
	case b.promoted:
	case x.IsNull():
		b.AppendNulls(1)
		return
	case !v.Typed() && typedKind(x.Kind()):
		b.setKind(x.Kind())
		fallthrough
	case v.Typed() && x.Kind() == v.Kind:
		if b.setTyped(x) {
			b.n++
			return
		}
		b.promote()
	default:
		b.promote()
	}
	v.Values[b.n] = x
	b.n++
}

// setTyped stores x, of the column's kind, at row b.n. It stores
// nothing and returns false when x's string would take Str past
// MaxInt32 bytes.
func (b *ColumnBuilder) setTyped(x schema.Value) bool {
	v := &b.v
	switch v.Kind {
	case schema.KindFloat64:
		v.Floats[b.n] = x.AsFloat64()
	case schema.KindString, schema.KindJSON:
		str := x.AsString()
		if b.str.Cap()-b.str.Len() < len(str) {
			if b.str.Len()+len(str) > math.MaxInt32 {
				return false
			}
			b.grow(len(str), b.n)
		}
		b.str.WriteString(str)
		v.Offs[b.n+1] = int32(b.str.Len())
	default:
		v.Ints[b.n] = x.AsInt64()
	}
	return true
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
