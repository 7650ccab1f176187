package fragment

import (
	"fmt"
	"strconv"
	"strings"

	"vortex/internal/meta"
)

// Path is the Colossus path of a streamlet's index'th log file.
func Path(table meta.TableID, sl meta.StreamletID, index int) string {
	return fmt.Sprintf("%sf-%d", Prefix(table, sl), index)
}

// Prefix is the Colossus path prefix of a streamlet's log files.
func Prefix(table meta.TableID, sl meta.StreamletID) string {
	return fmt.Sprintf("wos/%s/%s/", table, sl)
}

// IndexFromPath parses the index out of a log file's path: the leading
// digit run after the last "/f-". Groomed or renamed files may carry a
// suffix ("f-3.groomed", "f-3/part") and must still sort into tail
// order, so only a segment with no digits at all yields -1.
func IndexFromPath(p string) int {
	i := strings.LastIndex(p, "/f-")
	if i < 0 {
		return -1
	}
	rest := p[i+3:]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(rest[:j])
	if err != nil {
		return -1
	}
	return n
}

// End returns the file offset just past the last of blocks, a prefix of
// s.Blocks, or the end of s's header when blocks is empty. s.End(s.Blocks)
// is the scan's end: where the file's next append lands.
func (s *ScanResult) End(blocks []Block) int64 {
	if n := len(blocks); n > 0 {
		return blocks[n-1].Offset + blocks[n-1].Size
	}
	return s.dataStart
}

// Within returns the blocks that end at or before bound: a file's
// committed blocks under a committed size recorded elsewhere — a File
// Map entry, a sealed fragment's record, a reconciliation (§7.1).
func Within(blocks []Block, bound int64) []Block {
	var out []Block
	for _, b := range blocks {
		if b.Offset+b.Size <= bound {
			out = append(out, b)
		}
	}
	return out
}

// FileMapBound returns the largest committed size that the File Maps of
// headers record for the streamlet's index'th file: a successor file's
// header is the authoritative bound on its predecessors (§7.1). ok is
// false when no header records a positive size for it.
func FileMapBound(index int, headers ...Header) (bound int64, ok bool) {
	for _, h := range headers {
		for _, e := range h.FileMap {
			if e.Index == index && e.CommittedSize > bound {
				bound, ok = e.CommittedSize, true
			}
		}
	}
	return bound, ok
}

// Agreed returns the longest prefix of scans[0].Blocks that every scan
// holds at the same offsets and sizes: the blocks the replicated write
// landed on all of the replicas scanned. One scan agrees with itself
// on all of its blocks.
func Agreed(scans ...*ScanResult) []Block {
	if len(scans) == 0 {
		return nil
	}
	agreed := scans[0].Blocks
	for _, s := range scans[1:] {
		k := 0
		for k < len(agreed) && k < len(s.Blocks) && agreed[k].Offset == s.Blocks[k].Offset && agreed[k].Size == s.Blocks[k].Size {
			k++
		}
		agreed = agreed[:k]
	}
	return agreed
}
