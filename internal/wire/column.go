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

	"vortex/internal/bin"
	"vortex/internal/rowenc"
	"vortex/internal/schema"
)

// AppendColumn appends `encoding | uvarint length | payload` for the
// selected rows of v, keeping v's encoding: a DICT vector emits a
// dictionary compacted to the selection plus the selected codes, an RLE
// vector its runs intersected with the selection.
func AppendColumn(dst []byte, v *Vector, sel Selection) []byte {
	enc, payload := ColumnPayload(v, sel)
	dst = append(dst, enc)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

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
		// uses (the decoder requires dictLen <= rows). If compaction
		// leaves as many entries as rows, PLAIN is no bigger.
		remap := make([]int32, len(v.Dict))
		for i := range remap {
			remap[i] = -1
		}
		var dict []schema.Value
		codes := make([]uint32, 0, nSel)
		_ = forEachSel(sel, n, func(i int32) error {
			c := v.Codes[i]
			if remap[c] < 0 {
				remap[c] = int32(len(dict))
				dict = append(dict, v.Dict[c])
			}
			codes = append(codes, uint32(remap[c]))
			return nil
		})
		if len(dict) < nSel {
			p = binary.AppendUvarint(p, uint64(len(dict)))
			for _, d := range dict {
				p = rowenc.AppendValue(p, d)
			}
			for _, c := range codes {
				p = binary.AppendUvarint(p, uint64(c))
			}
			return BatchEncDict, p
		}
	case v.Enc == BatchEncRLE:
		// Re-run the runs over the selection: adjacent selected rows in
		// the same source run stay one run.
		var runs []Run
		ri, start := 0, int32(0)
		_ = forEachSel(sel, n, func(i int32) error {
			prev := ri
			for ri < len(v.Runs) && i >= start+v.Runs[ri].Len {
				start += v.Runs[ri].Len
				ri++
			}
			if len(runs) > 0 && ri == prev && ri < len(v.Runs) {
				runs[len(runs)-1].Len++
				return nil
			}
			val := schema.Null()
			if ri < len(v.Runs) {
				val = v.Runs[ri].Value
			}
			runs = append(runs, Run{Len: 1, Value: val})
			return nil
		})
		for _, r := range runs {
			p = binary.AppendUvarint(p, uint64(r.Len))
			p = rowenc.AppendValue(p, r.Value)
		}
		return BatchEncRLE, p
	}
	for _, val := range v.Gather(sel) {
		p = rowenc.AppendValue(p, val)
	}
	return BatchEncPlain, p
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
		v.Values = make([]schema.Value, rows)
		for i := range v.Values {
			v.Values[i] = rowenc.ReadValue(r)
		}
	case BatchEncRLE:
		for covered := 0; covered < rows; {
			runLen := r.Uvarint()
			if runLen == 0 || runLen > uint64(rows-covered) {
				r.Fail(fmt.Errorf("run length %d with %d rows left", runLen, rows-covered))
				break
			}
			v.Runs = append(v.Runs, Run{Len: int32(runLen), Value: rowenc.ReadValue(r)})
			covered += int(runLen)
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
