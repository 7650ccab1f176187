package fragment

import (
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"vortex/internal/blockenc"
	"vortex/internal/bloom"
	"vortex/internal/truetime"
)

func sampleHeader() Header {
	return Header{
		StreamletID:   "s-abc/sl-2",
		Index:         3,
		SchemaVersion: 1,
		WriterEpoch:   42,
		FileMap: []FileMapEntry{
			{Index: 0, CommittedSize: 1000, StartRow: 0, RowCount: 10, MinTS: 5, MaxTS: 50},
			{Index: 1, CommittedSize: 2000, StartRow: 10, RowCount: 20, MinTS: 51, MaxTS: 99},
		},
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := sampleHeader()
	enc := EncodeHeader(h)
	got, n, err := ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(enc) {
		t.Fatalf("consumed %d of %d", n, len(enc))
	}
	if got.StreamletID != h.StreamletID || got.Index != h.Index || got.WriterEpoch != 42 || len(got.FileMap) != 2 {
		t.Fatalf("got %+v", got)
	}
	if got.FileMap[1] != h.FileMap[1] {
		t.Fatalf("file map entry = %+v", got.FileMap[1])
	}
}

func TestHeaderRejectsCorruption(t *testing.T) {
	enc := EncodeHeader(sampleHeader())
	for i := range enc {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, _, err := ParseHeader(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := ParseHeader(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestScanBoundsAllocationByInput: a File Map entry spends at least six
// bytes, so a header whose entry count its bytes cannot hold is refused
// before the File Map is sized by it. Believed, 2^20 entries were 48 MB.
func TestScanBoundsAllocationByInput(t *testing.T) {
	bare := []byte(headerMagic + "\x02\x00\x00\x00\x00") // version, empty id, index, schema, epoch
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"FileMap count 2^20", append(bare, 0x80, 0x80, 0x40)},
		{"FileMap count 2^20 over one entry", append(append(bare, 0x80, 0x80, 0x40), make([]byte, 6+4)...)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Scan(tc.data)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptHeader) {
			t.Errorf("%s: err = %v, want ErrCorruptHeader", tc.name, err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64*len(tc.data)+1<<20); grew > bound {
			t.Errorf("%s: refusing %d bytes allocated %d", tc.name, len(tc.data), grew)
		}
	}
}

func buildFile(t testing.TB, blocks []Block, finalize bool) []byte {
	t.Helper()
	file := EncodeHeader(sampleHeader())
	var rows int64
	var minTS, maxTS truetime.Timestamp
	for _, b := range blocks {
		file = append(file, EncodeBlock(b)...)
		if b.Kind == BlockData {
			rows += b.RowCount
			if minTS == 0 || b.Timestamp < minTS {
				minTS = b.Timestamp
			}
			if b.Timestamp > maxTS {
				maxTS = b.Timestamp
			}
		}
	}
	if finalize {
		f := bloom.New(16, 0.01)
		f.AddString("ACME")
		file = append(file, EncodeFinalization(Footer{
			BloomOffset:   int64(len(file)),
			CommittedSize: int64(len(file)),
			RowCount:      rows,
			MinTS:         minTS,
			MaxTS:         maxTS,
		}, f.Marshal())...)
	}
	return file
}

func dataBlock(ts truetime.Timestamp, startRow, rows int64, payload string) Block {
	return Block{Kind: BlockData, Timestamp: ts, StartRow: startRow, RowCount: rows, Payload: []byte(payload)}
}

func TestScanCommitRule(t *testing.T) {
	// Final block is DATA with nothing after it: locally undecidable.
	file := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		dataBlock(20, 5, 5, "batch-b"),
	}, false)
	res, err := Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 || len(res.CommittedBlocks) != 1 {
		t.Fatalf("blocks=%d committed=%d", len(res.Blocks), len(res.CommittedBlocks))
	}
	if res.TailBlock == nil || string(res.TailBlock.Payload) != "batch-b" {
		t.Fatalf("tail block = %+v", res.TailBlock)
	}
	if res.CommittedSize != res.Blocks[1].Offset {
		t.Fatalf("committed size %d, want %d", res.CommittedSize, res.Blocks[1].Offset)
	}

	// A commit record after the final append makes it committed.
	file = buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		dataBlock(20, 5, 5, "batch-b"),
		{Kind: BlockCommit, Timestamp: 21},
	}, false)
	res, err = Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CommittedBlocks) != 3 || res.TailBlock != nil {
		t.Fatalf("committed=%d tail=%v", len(res.CommittedBlocks), res.TailBlock)
	}
}

func TestScanTornTail(t *testing.T) {
	full := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		{Kind: BlockCommit, Timestamp: 11},
		dataBlock(20, 5, 7, "batch-b-which-is-longer"),
	}, false)
	// Chop the file mid-final-block: simulates a crash mid-write.
	for cut := len(full) - 1; cut > len(full)-20; cut-- {
		res, err := Scan(full[:cut])
		if err != nil {
			t.Fatalf("torn tail at %d: %v", cut, err)
		}
		if len(res.Blocks) != 2 {
			t.Fatalf("cut %d: parsed %d blocks, want 2 (torn final dropped)", cut, len(res.Blocks))
		}
		// batch-a followed by COMMIT: both committed.
		if len(res.CommittedBlocks) != 2 || res.TailBlock != nil {
			t.Fatalf("cut %d: committed=%d", cut, len(res.CommittedBlocks))
		}
	}
}

func TestScanFinalizedFile(t *testing.T) {
	file := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		dataBlock(30, 5, 3, "batch-b"),
	}, true)
	res, err := Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	if res.Footer == nil {
		t.Fatal("footer missing")
	}
	if res.Footer.RowCount != 8 || res.Footer.MinTS != 10 || res.Footer.MaxTS != 30 {
		t.Fatalf("footer = %+v", res.Footer)
	}
	// Finalization commits everything, even a trailing DATA block.
	if len(res.CommittedBlocks) != 2 || res.TailBlock != nil {
		t.Fatal("finalized file must have no undecidable tail")
	}
	filter, err := Bloom(file, res.Footer)
	if err != nil {
		t.Fatal(err)
	}
	if !filter.ContainsString("ACME") {
		t.Fatal("bloom filter lost its key")
	}
	if filter.ContainsString("not-there-at-all-xyz") {
		t.Log("bloom false positive (acceptable)")
	}
}

func TestSentinelPoisoning(t *testing.T) {
	// A sentinel from a different writer epoch marks the file poisoned:
	// the original writer must relinquish ownership (§5.6).
	file := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		{Kind: BlockSentinel, Timestamp: 11, StartRow: 777}, // epoch 777 != header's 42
	}, false)
	res, err := Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poisoned {
		t.Fatal("foreign sentinel did not poison the file")
	}
	// A sentinel with the writer's own epoch is not poisoning.
	file = buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		{Kind: BlockSentinel, Timestamp: 11, StartRow: 42},
	}, false)
	res, err = Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	if res.Poisoned {
		t.Fatal("own sentinel poisoned the file")
	}
}

func TestFlushBlockCarriesOffset(t *testing.T) {
	file := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		{Kind: BlockFlush, Timestamp: 12, StartRow: 5}, // flushed through offset 5
	}, false)
	res, err := Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	last := res.CommittedBlocks[len(res.CommittedBlocks)-1]
	if last.Kind != BlockFlush || last.StartRow != 5 {
		t.Fatalf("flush block = %+v", last)
	}
}

func TestEmptyFragment(t *testing.T) {
	file := EncodeHeader(sampleHeader())
	res, err := Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 0 || res.TailBlock != nil {
		t.Fatalf("empty fragment: %+v", res)
	}
	if res.CommittedSize != int64(len(file)) {
		t.Fatalf("committed size = %d, want header size %d", res.CommittedSize, len(file))
	}
}

func TestScanGarbageAfterValidBlocksStops(t *testing.T) {
	file := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		{Kind: BlockCommit, Timestamp: 11},
	}, false)
	dirty := append(append([]byte(nil), file...), []byte("zombie scribbles")...)
	res, err := Scan(dirty)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Blocks) != 2 {
		t.Fatalf("garbage parsed as blocks: %d", len(res.Blocks))
	}
}

func TestBlockPayloadCorruptionDropsBlockAndSuccessors(t *testing.T) {
	file := buildFile(t, []Block{
		dataBlock(10, 0, 5, "batch-a"),
		dataBlock(20, 5, 5, "batch-b"),
		{Kind: BlockCommit, Timestamp: 21},
	}, false)
	res, err := Scan(file)
	if err != nil {
		t.Fatal(err)
	}
	secondOffset := int(res.Blocks[1].Offset)
	// Corrupt a payload byte of block 2 (skip its fixed header region).
	bad := append([]byte(nil), file...)
	bad[secondOffset+int(res.Blocks[1].Size)-2] ^= 0xFF
	res2, err := Scan(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Blocks) != 1 {
		t.Fatalf("corrupt block accepted: %d blocks", len(res2.Blocks))
	}
}

func TestHeaderPropertyRoundTrip(t *testing.T) {
	f := func(id string, idx uint8, epoch int64, sizes []int64) bool {
		h := Header{StreamletID: id, Index: int(idx), WriterEpoch: epoch}
		for i, s := range sizes {
			h.FileMap = append(h.FileMap, FileMapEntry{Index: i, CommittedSize: s, RowCount: s / 10})
		}
		got, n, err := ParseHeader(EncodeHeader(h))
		if err != nil || n == 0 {
			return false
		}
		if got.StreamletID != id || got.WriterEpoch != epoch || len(got.FileMap) != len(sizes) {
			return false
		}
		for i := range sizes {
			if got.FileMap[i].CommittedSize != sizes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(kind uint8, ts int64, startRow int64, payload []byte) bool {
		b := Block{
			Kind:      BlockKind(kind%4) + BlockData,
			Timestamp: truetime.Timestamp(ts),
			StartRow:  startRow,
			RowCount:  int64(len(payload)),
			Payload:   payload,
		}
		enc := EncodeBlock(b)
		got, next, ok := parseBlock(enc, 0)
		if !ok || next != int64(len(enc)) {
			return false
		}
		return got.Kind == b.Kind && got.Timestamp == b.Timestamp &&
			got.StartRow == b.StartRow && string(got.Payload) == string(payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestFooterParsingEdges(t *testing.T) {
	if _, err := ParseFooter([]byte("short")); err != ErrNotFinalized {
		t.Fatalf("short file: %v", err)
	}
	file := buildFile(t, []Block{dataBlock(10, 0, 1, "x")}, true)
	bad := append([]byte(nil), file...)
	bad[len(bad)-10] ^= 1
	if _, err := ParseFooter(bad); err == nil {
		t.Fatal("corrupt footer accepted")
	}
}

func TestScanUsesFileMapSemantics(t *testing.T) {
	// The File Map of a new fragment records the committed size of its
	// predecessors — the disaster-recovery replica of Stream Server
	// metadata. Verify a reader can chain fragments through it.
	h := sampleHeader()
	enc := EncodeHeader(h)
	got, _, err := ParseHeader(enc)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range got.FileMap {
		total += e.RowCount
	}
	if total != 30 {
		t.Fatalf("file map rows = %d, want 30", total)
	}
	if got.FileMap[1].StartRow != 10 {
		t.Fatal("file map lost record ranges")
	}
	_ = blockenc.Checksum // keep import for clarity of intent
}

func TestIndexFromPath(t *testing.T) {
	cases := []struct {
		path string
		want int
	}{
		{"tables/t/sl-1/f-0", 0},
		{"tables/t/sl-1/f-17", 17},
		{"a/b/f-3.groomed", 3}, // suffix after the digit run
		{"a/b/f-3/part", 3},    // nested segment after the index
		{"a/f-2/x/f-9", 9},     // last "/f-" wins
		{"f-4", -1},            // no "/f-" separator
		{"a/b/f-", -1},         // no digits at all
		{"a/b/f-x7", -1},       // digits must lead the segment
		{"a/b/g-7", -1},        // wrong marker
		{"", -1},
		{"a/b/f-00012", 12}, // leading zeros
		{Path("d.t", "s-1/sl-2", 1234), 1234},
	}
	for _, c := range cases {
		if got := IndexFromPath(c.path); got != c.want {
			t.Errorf("IndexFromPath(%q) = %d, want %d", c.path, got, c.want)
		}
	}
}
