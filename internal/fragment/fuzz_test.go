package fragment

import (
	"strings"
	"testing"

	"vortex/internal/meta"
)

// FuzzScan feeds arbitrary bytes to the WOS fragment parser, which reads
// what comes back from Colossus and from the disk tier. Scan must stop
// at a torn tail rather than fail on it, so on any input with an intact
// header it returns a result, and that result must stay inside the
// bytes it was given: blocks laid end to end from the header on, the
// committed prefix no longer than the file, the tail block — if any —
// the last one, and the bloom filter extractable or refused, never a
// panic. It also holds the identities the reader and reconciliation
// rest on: the committed blocks and the tail block are all the blocks,
// the blocks up to the scan's end are all of them, a scan agrees with
// itself on all of them, and IndexFromPath inverts Path.
func FuzzScan(f *testing.F) {
	blocks := []Block{
		dataBlock(10, 0, 5, "batch-a"),
		{Kind: BlockFlush, Timestamp: 11, StartRow: 5},
		dataBlock(20, 5, 5, "batch-b"),
		{Kind: BlockCommit, Timestamp: 21},
		{Kind: BlockSentinel, Timestamp: 22, StartRow: 7},
	}
	live := buildFile(f, blocks[:3], false)
	f.Add(buildFile(f, blocks, true))
	f.Add(live)
	f.Add(live[:len(live)-3]) // torn tail
	f.Add(buildFile(f, nil, false))
	f.Add([]byte(headerMagic))

	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := Scan(data)
		if err != nil {
			return
		}
		_, end, _ := ParseHeader(data)
		for i, b := range res.Blocks {
			if b.Offset != int64(end) || b.Size <= 0 {
				t.Fatalf("block %d at %d+%d, previous ended at %d", i, b.Offset, b.Size, end)
			}
			end = int(b.Offset + b.Size)
		}
		if end > len(data) || res.CommittedSize > int64(end) {
			t.Fatalf("blocks end at %d, committed size %d, file is %d bytes", end, res.CommittedSize, len(data))
		}
		if n := len(res.CommittedBlocks); n > len(res.Blocks) || (res.TailBlock != nil && n != len(res.Blocks)-1) {
			t.Fatalf("%d of %d blocks committed, tail block %v", n, len(res.Blocks), res.TailBlock != nil)
		}
		if res.Footer != nil {
			_, _ = Bloom(data, res.Footer)
		}
		parts := append([]Block(nil), res.CommittedBlocks...)
		if res.TailBlock != nil {
			parts = append(parts, *res.TailBlock)
		}
		if !sameBlocks(parts, res.Blocks) {
			t.Fatalf("committed %d + tail %v are not the %d blocks", len(res.CommittedBlocks), res.TailBlock != nil, len(res.Blocks))
		}
		if got := Within(res.Blocks, res.End(res.Blocks)); !sameBlocks(got, res.Blocks) {
			t.Fatalf("%d of %d blocks end by the scan's end %d", len(got), len(res.Blocks), res.End(res.Blocks))
		}
		if got := Agreed(res, res); !sameBlocks(got, res.Blocks) {
			t.Fatalf("a scan agrees with itself on %d of %d blocks", len(got), len(res.Blocks))
		}
		if idx := res.Header.Index; idx >= 0 {
			p := Path("d.t", meta.StreamletID(res.Header.StreamletID), idx)
			if got := IndexFromPath(p); got != idx || !strings.HasPrefix(p, Prefix("d.t", meta.StreamletID(res.Header.StreamletID))) {
				t.Fatalf("IndexFromPath(%q) = %d, want %d, under its Prefix", p, got, idx)
			}
		}
	})
}
