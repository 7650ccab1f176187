package ros

import (
	"encoding/binary"
	"errors"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/schema"
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

// hostileHeader hand-builds the file header for rows rows (no partition,
// no cluster keys) up to and including the bloom-filter length, which
// the caller chooses.
func hostileHeader(rows int, bloomLen uint64) []byte {
	out := append([]byte(fileMagic), 1)
	out = append(out, make([]byte, 8)...)         // schema fingerprint
	out = binary.AppendUvarint(out, 1)            // schema version
	out = binary.AppendUvarint(out, uint64(rows)) // row count
	out = append(out, 0, 0, 0)                    // no partition, empty cluster min and max
	return binary.AppendUvarint(out, bloomLen)
}

// hostileBloomLength claims a bloom filter of 2^63+5 bytes: converted to
// int the length is negative, which slipped past a `pos+int(n) >
// len(body)` guard and panicked in the slice expression behind it.
func hostileBloomLength() []byte {
	return seal(append(hostileHeader(0, 1<<63+5), 0, 0, 0, 0))
}

// hostileLevelRun is a 120-byte, one-row file whose only column —
// Links.Backward of the Dremel schema — claims 2^30 entries, all in one
// run of each level page. Expanding those levels took 2 GiB and 8 s.
func hostileLevelRun() []byte {
	fb := bloom.New(1, 0.01).Marshal()
	out := append(hostileHeader(1, uint64(len(fb))), fb...)
	out = append(out, 0, 2) // row 0: INSERT, seq 1
	out = append(out, 1)    // one column
	path := "Links.Backward"
	out = append(binary.AppendUvarint(out, uint64(len(path))), path...)
	out = append(out, byte(schema.KindInt64), 1, 2) // kind, MaxRep, MaxDef
	out = binary.AppendUvarint(out, 1<<30)          // entries
	out = binary.AppendUvarint(out, 0)              // values
	out = append(out, 0)                            // no min/max
	out = binary.AppendUvarint(out, 1<<30)          // nulls
	run := append(binary.AppendUvarint(nil, 1<<30), 0)
	for i := 0; i < 2; i++ { // repetition levels, definition levels
		out = append(binary.AppendUvarint(out, uint64(len(run))), run...)
	}
	out = append(out, byte(EncodingPlain), 0) // empty value page
	return seal(append(out, 0, 0, 0, 0))
}

func fuzzSeedFile(f *testing.F, s *schema.Schema, rows []schema.Row) []byte {
	w := NewWriter(s)
	for i, r := range rows {
		if err := w.Add(r, int64(i+1)); err != nil {
			f.Fatal(err)
		}
	}
	data, err := w.Finish()
	if err != nil {
		f.Fatal(err)
	}
	return data
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
	f.Add(hostileBloomLength())
	f.Add(hostileLevelRun())

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := Open(seal(data))
		if err != nil {
			return
		}
		for _, s := range []*schema.Schema{flat, nested} {
			if rows, err := rd.Rows(s); err == nil && int64(len(rows)) != rd.RowCount() {
				t.Fatalf("Rows returned %d rows, file holds %d", len(rows), rd.RowCount())
			}
			vecs, _, _, err := rd.Vectors(s, nil)
			if err != nil {
				continue
			}
			for i := range vecs {
				if n := vecs[i].Len(); int64(n) != rd.RowCount() {
					t.Fatalf("vector %q covers %d rows, file holds %d", vecs[i].Name, n, rd.RowCount())
				}
			}
		}
	})
}

// TestOpenRefusesHostileHeaders pins the two FuzzOpen reproducers as
// plain refusals, each for its stated reason.
func TestOpenRefusesHostileHeaders(t *testing.T) {
	for name, data := range map[string][]byte{"bloom length": hostileBloomLength(), "level run": hostileLevelRun()} {
		if _, err := Open(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}
