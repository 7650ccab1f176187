package client

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vortex/internal/blockenc"
	"vortex/internal/colossus"
	"vortex/internal/fragment"
	"vortex/internal/meta"
)

// ReplicatedReadError must separate "the region has no such cluster"
// (configuration — not retryable) from "the replica failed the
// operation" (outage window — retryable), and expose each per-replica
// cause to errors.Is.
func TestReplicatedReadErrorClassification(t *testing.T) {
	cause := errors.New("disk on fire")
	outage := &ReplicatedReadError{
		Op:   "read",
		Path: "tables/t/sl-1/f-0",
		Attempts: []ReplicaAttempt{
			{Cluster: "alpha", Err: cause},
			{Cluster: "beta", Err: errors.New("sealed reader gone")},
		},
	}
	if !outage.retryable() {
		t.Fatal("per-replica failures must be retryable")
	}
	if !errors.Is(outage, cause) {
		t.Fatal("per-replica cause not reachable through errors.Is")
	}
	msg := outage.Error()
	for _, want := range []string{"read", "tables/t/sl-1/f-0", "alpha", "beta", "disk on fire"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}

	misconfig := &ReplicatedReadError{
		Op:      "list",
		Path:    "tables/t/",
		Unknown: []string{"gamma"},
	}
	if misconfig.retryable() {
		t.Fatal("unknown clusters are a configuration error; retrying cannot help")
	}
	if !strings.Contains(misconfig.Error(), "gamma") {
		t.Fatalf("error %q does not name the unknown cluster", misconfig.Error())
	}

	// The retry policy consults the same classification.
	if !retryableErr(outage) {
		t.Fatal("retry policy must retry a replica outage")
	}
	if retryableErr(misconfig) {
		t.Fatal("retry policy must not retry a misconfiguration")
	}
}

// TestFileMapBoundReadsTheHeader: the File Map lookup reads a bounded
// prefix of the successor file, not the file, and reads the whole file
// only when the header runs past that prefix — a File Map of hundreds
// of entries.
func TestFileMapBoundReadsTheHeader(t *testing.T) {
	body := bytes.Repeat([]byte{0xab}, 64<<10) // the successor's blocks
	for _, tc := range []struct {
		name    string
		entries int  // File Map entries before this file's
		mapped  bool // the File Map records this file
		whole   bool // the header runs past the prefix
	}{
		{"no entries", 0, false, false},
		{"this file only", 0, true, false},
		{"ten files", 10, true, false},
		{"ten files, not this one", 10, false, false},
		{"header past the prefix", 400, true, true},
		{"header past the prefix, not this file", 400, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			region := colossus.NewRegion("a", "b")
			const index = 500
			var fmap []fragment.FileMapEntry
			for i := 0; i < tc.entries; i++ {
				fmap = append(fmap, fragment.FileMapEntry{Index: i, CommittedSize: 1 << 20, StartRow: int64(i) << 10, RowCount: 1 << 10, MinTS: 1 << 60, MaxTS: 1<<60 + 1})
			}
			if tc.mapped {
				fmap = append(fmap, fragment.FileMapEntry{Index: index, CommittedSize: 4242})
			}
			hdr := fragment.EncodeHeader(fragment.Header{StreamletID: "sl-1", Index: index + 1, FileMap: fmap})
			if whole := len(hdr) > headerPrefix; whole != tc.whole {
				t.Fatalf("a %d-byte header; the case needs one past %d bytes: %v", len(hdr), headerPrefix, tc.whole)
			}
			file := append(hdr, body...)
			next := fragment.Path("d.t", "sl-1", index+1)
			if _, err := region.Cluster("a").Append(next, file, blockenc.Checksum(file)); err != nil {
				t.Fatal(err)
			}
			c := &Client{region: region}
			bound, ok := c.fileMapBound(Assignment{
				Frag:      meta.FragmentInfo{Clusters: [2]string{"a", "b"}},
				NextPath:  next,
				FragIndex: index,
			})
			if ok != tc.mapped || tc.mapped && bound != 4242 {
				t.Fatalf("bound %d, %v; want 4242: %v", bound, ok, tc.mapped)
			}
			read, want := region.Stats().BytesRead, int64(headerPrefix)
			if tc.whole {
				want += int64(len(file))
			}
			if read != want {
				t.Fatalf("read %d bytes of a %d-byte file, want %d", read, len(file), want)
			}
		})
	}
}
