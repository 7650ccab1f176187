package fragment

import "testing"

// FuzzScan feeds arbitrary bytes to the WOS fragment parser, which reads
// what comes back from Colossus and from the disk tier. Scan must stop
// at a torn tail rather than fail on it, so on any input with an intact
// header it returns a result, and that result must stay inside the
// bytes it was given: blocks laid end to end from the header on, the
// committed prefix no longer than the file, the tail block — if any —
// the last one, and the bloom filter extractable or refused, never a
// panic.
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
	})
}
