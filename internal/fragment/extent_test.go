package fragment

import (
	"reflect"
	"testing"
)

// TestAgreedAndWithin walks the replica states reconciliation and the
// reader's tail decision meet: Agreed keeps the blocks every replica
// holds at the same place, and Within, bounded at the end of those
// blocks, keeps exactly them.
func TestAgreedAndWithin(t *testing.T) {
	a := dataBlock(10, 0, 5, "batch-a")
	b := dataBlock(20, 5, 5, "batch-b")
	c := dataBlock(30, 5, 5, "batch-c-diverges")
	flush := Block{Kind: BlockFlush, Timestamp: 22, StartRow: 10}
	sentinel := Block{Kind: BlockSentinel, Timestamp: 23, StartRow: 777}
	live := buildFile(t, []Block{a, b}, false)
	header := len(EncodeHeader(sampleHeader()))

	cases := []struct {
		name     string
		replicas [][]byte
		agreed   int
	}{
		{"tail diverges", [][]byte{live, buildFile(t, []Block{a, c}, false)}, 1},
		{"tail on one replica only", [][]byte{live, buildFile(t, []Block{a}, false)}, 1},
		{"torn tail", [][]byte{live, live[:len(live)-3]}, 1},
		{"footer", [][]byte{buildFile(t, []Block{a, b}, true), buildFile(t, []Block{a, b}, true)}, 2},
		{"sentinel against a degraded write", [][]byte{buildFile(t, []Block{a, b, sentinel}, false), buildFile(t, []Block{a, b, c}, false)}, 2},
		{"flush last", [][]byte{buildFile(t, []Block{a, flush}, false), buildFile(t, []Block{a, flush}, false)}, 2},
		{"single degraded replica", [][]byte{live}, 2},
		{"no blocks", [][]byte{buildFile(t, nil, false), buildFile(t, nil, false)}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var scans []*ScanResult
			for _, data := range tc.replicas {
				s, err := Scan(data)
				if err != nil {
					t.Fatal(err)
				}
				scans = append(scans, s)
			}
			first := scans[0]
			agreed := Agreed(scans...)
			if len(agreed) != tc.agreed || !sameBlocks(agreed, first.Blocks[:len(agreed)]) {
				t.Fatalf("agreed on %d blocks, want the first %d", len(agreed), tc.agreed)
			}
			end := first.End(agreed)
			if got := Within(first.Blocks, end); !sameBlocks(got, agreed) {
				t.Fatalf("within %d: %d blocks, want the %d agreed", end, len(got), len(agreed))
			}
			if len(agreed) > 0 {
				if got := Within(first.Blocks, end-1); len(got) != len(agreed)-1 {
					t.Fatalf("within %d: %d blocks, want %d", end-1, len(got), len(agreed)-1)
				}
			} else if end != int64(header) {
				t.Fatalf("end of no blocks = %d, want the header's end %d", end, header)
			}
			if first.Footer != nil && first.End(first.Blocks) != first.Footer.CommittedSize {
				t.Fatalf("blocks end at %d, footer says %d", first.End(first.Blocks), first.Footer.CommittedSize)
			}
		})
	}
}

func TestFileMapBound(t *testing.T) {
	h := sampleHeader() // records files 0 (1000 bytes) and 1 (2000 bytes)
	later := Header{FileMap: []FileMapEntry{{Index: 1, CommittedSize: 2500}, {Index: 2, CommittedSize: 0}}}
	cases := []struct {
		name    string
		index   int
		headers []Header
		bound   int64
		ok      bool
	}{
		{"recorded", 0, []Header{h}, 1000, true},
		{"largest over headers", 1, []Header{h, later}, 2500, true},
		{"not recorded", 3, []Header{h, later}, 0, false},
		{"zero size records nothing", 2, []Header{later}, 0, false},
		{"no headers", 0, nil, 0, false},
	}
	for _, tc := range cases {
		if bound, ok := FileMapBound(tc.index, tc.headers...); bound != tc.bound || ok != tc.ok {
			t.Errorf("%s: FileMapBound = %d, %v; want %d, %v", tc.name, bound, ok, tc.bound, tc.ok)
		}
	}
}

// sameBlocks compares block lists by content; an empty list equals nil.
func sameBlocks(a, b []Block) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
