// Package meta defines the metadata entities shared by Vortex's control
// plane, data plane, client library and storage optimizer: Streams,
// Streamlets and Fragments (§5.1), their identifiers, states and the
// visibility intervals that make snapshot reads exactly-once (§6.1).
package meta

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"

	"vortex/internal/truetime"
)

// TableID identifies a table within a region ("dataset.table").
type TableID string

// StreamID uniquely identifies a Stream. The SMS generates "a unique
// random id for the Stream" (§5.4.3).
type StreamID string

// StreamletID identifies a Streamlet within its Stream.
type StreamletID string

// FragmentID identifies a Fragment within its Streamlet.
type FragmentID string

var entropyMu sync.Mutex

// entropy is the id-generation randomness source; nil means crypto/rand.
var entropy io.Reader

// SetEntropy replaces the randomness source behind RandomHex (stream and
// ROS ids). Deterministic simulation installs a seeded reader so that
// generated ids — which become Spanner keys and therefore drive scan,
// placement and conversion order — replay identically; nil restores
// crypto/rand. Reads of a non-nil source are serialized.
func SetEntropy(r io.Reader) {
	entropyMu.Lock()
	entropy = r
	entropyMu.Unlock()
}

// RandomHex returns 2*nBytes hex characters from the configured entropy
// source.
func RandomHex(nBytes int) string {
	b := make([]byte, nBytes)
	entropyMu.Lock()
	src := entropy
	if src == nil {
		src = rand.Reader
	}
	_, err := io.ReadFull(src, b)
	entropyMu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("meta: reading id entropy: %v", err))
	}
	return hex.EncodeToString(b)
}

// NewStreamID generates a fresh random stream id.
func NewStreamID() StreamID {
	return StreamID("s-" + RandomHex(8))
}

// StreamletIDFor derives the id of the seq'th streamlet of a stream.
func StreamletIDFor(stream StreamID, seq int) StreamletID {
	return StreamletID(fmt.Sprintf("%s/sl-%d", stream, seq))
}

// FragmentIDFor derives the id of the index'th fragment of a streamlet.
func FragmentIDFor(sl StreamletID, index int) FragmentID {
	return FragmentID(fmt.Sprintf("%s/f-%d", sl, index))
}

// StreamletOf is the inverse of FragmentIDFor: the streamlet whose
// fragment f is, or false for an id FragmentIDFor did not derive (a
// ROS fragment's).
func StreamletOf(f FragmentID) (StreamletID, bool) {
	i := strings.LastIndex(string(f), "/f-")
	if i < 0 || len(f) == i+3 || strings.Trim(string(f[i+3:]), "0123456789") != "" {
		return "", false
	}
	return StreamletID(f[:i]), true
}

// StreamType selects the visibility semantics of appended rows (§4.2.1).
type StreamType int

// Stream types.
const (
	// Unbuffered: acknowledged appends are durably committed and visible
	// to subsequent reads.
	Unbuffered StreamType = iota
	// Buffered: acknowledged appends are durable but invisible until the
	// stream is flushed past their offset.
	Buffered
	// Pending: rows are invisible until the stream is (batch) committed.
	Pending
)

// String returns the API name of the stream type.
func (t StreamType) String() string {
	switch t {
	case Unbuffered:
		return "UNBUFFERED"
	case Buffered:
		return "BUFFERED"
	case Pending:
		return "PENDING"
	}
	return fmt.Sprintf("StreamType(%d)", int(t))
}

// StreamInfo is the control-plane state of a Stream.
type StreamInfo struct {
	ID    StreamID   `json:"id"`
	Table TableID    `json:"table"`
	Type  StreamType `json:"type"`
	// Finalized streams accept no further appends (§4.2.5).
	Finalized bool `json:"finalized"`
	// Committed marks a PENDING stream whose rows became visible (§4.2.4).
	Committed bool `json:"committed"`
	// CommitTS is the TrueTime timestamp at which a PENDING stream's rows
	// became visible.
	CommitTS truetime.Timestamp `json:"commit_ts,omitempty"`
	// FlushedOffset is the visibility frontier of a BUFFERED stream: rows
	// with stream offset < FlushedOffset are visible (§4.2.3).
	FlushedOffset int64 `json:"flushed_offset"`
	// NextStreamletSeq numbers the next streamlet created for the stream.
	NextStreamletSeq int `json:"next_streamlet_seq"`
	// CreatedAt is the stream's creation timestamp.
	CreatedAt truetime.Timestamp `json:"created_at"`
}

// StreamletState is the lifecycle state of a Streamlet.
type StreamletState int

// Streamlet states.
const (
	// StreamletWritable accepts appends; at most one per stream, always
	// the last (§5.1).
	StreamletWritable StreamletState = iota
	// StreamletFinalized accepts no appends; its metadata in Spanner is
	// now the source of truth (§6.2).
	StreamletFinalized
)

// String returns the state name.
func (s StreamletState) String() string {
	if s == StreamletWritable {
		return "WRITABLE"
	}
	return "FINALIZED"
}

// StreamletInfo is the control-plane state of a Streamlet: a contiguous
// slice of a Stream's rows, all replicated to the same two clusters.
type StreamletInfo struct {
	ID     StreamletID `json:"id"`
	Stream StreamID    `json:"stream"`
	Table  TableID     `json:"table"`
	Seq    int         `json:"seq"`
	// Server is the address of the Stream Server owning the streamlet.
	Server string `json:"server"`
	// Clusters are the two Colossus clusters holding replicas (§5.6).
	Clusters [2]string `json:"clusters"`
	// StartOffset is the stream row offset of the streamlet's first row.
	StartOffset int64 `json:"start_offset"`
	// RowCount is the number of committed rows known to the SMS. For a
	// writable streamlet this is a *stale cache* refreshed by heartbeats;
	// the Stream Server's log is the source of truth (§6.2).
	RowCount int64          `json:"row_count"`
	State    StreamletState `json:"state"`
	// NextFragmentIndex numbers the next fragment in the streamlet.
	NextFragmentIndex int `json:"next_fragment_index"`
	// Epoch identifies the writer incarnation the SMS granted the
	// streamlet to; reconciliation sentinels carry a different epoch.
	Epoch int64 `json:"epoch"`
}

// Format distinguishes write-optimized from read-optimized fragments.
type Format int

// Fragment formats (§5.1 "Data formats").
const (
	WOS Format = iota
	ROS
)

// String returns the format name.
func (f Format) String() string {
	if f == WOS {
		return "WOS"
	}
	return "ROS"
}

// FragmentInfo is the metadata of one Fragment: a contiguous block of
// rows inside a log file (WOS) or a columnar file (ROS).
type FragmentInfo struct {
	ID        FragmentID  `json:"id"`
	Streamlet StreamletID `json:"streamlet"` // empty for ROS fragments born from optimization
	Table     TableID     `json:"table"`
	Index     int         `json:"index"`
	Format    Format      `json:"format"`
	// Path is the file path in Colossus (identical in both replica
	// clusters: replication is physical, §5.6).
	Path string `json:"path"`
	// Clusters are the clusters holding replicas of the file.
	Clusters [2]string `json:"clusters"`
	// StartRow is the streamlet row offset of the fragment's first row
	// (WOS only; ROS fragments address rows by their own order).
	StartRow int64 `json:"start_row"`
	// RowCount is the number of committed rows in the fragment.
	RowCount int64 `json:"row_count"`
	// CommittedBytes is the committed physical size of the file.
	CommittedBytes int64 `json:"committed_bytes"`
	// MinRecordTS/MaxRecordTS bound the TrueTime timestamps assigned to
	// the fragment's rows (§5.3).
	MinRecordTS truetime.Timestamp `json:"min_record_ts"`
	MaxRecordTS truetime.Timestamp `json:"max_record_ts"`
	// CreationTS/DeletionTS delimit the snapshot interval in which the
	// fragment is visible: [CreationTS, DeletionTS). DeletionTS == 0
	// means live (§6.1).
	CreationTS truetime.Timestamp `json:"creation_ts"`
	DeletionTS truetime.Timestamp `json:"deletion_ts,omitempty"`
	// Finalized fragments accept no further appends.
	Finalized bool `json:"finalized"`
	// SchemaVersion is the table schema version the fragment was written
	// under (§5.4.1).
	SchemaVersion int `json:"schema_version"`
	// Partition is the partition id (days since epoch) when every row of
	// the fragment belongs to one partition; PartitionSet lists ids when
	// a WOS fragment spans several. Nil means unpartitioned/unknown.
	PartitionSet []int64 `json:"partition_set,omitempty"`
	// ClusterMin/ClusterMax are the rowenc-encoded clustering key bounds
	// of the fragment's rows; Bloom is the marshaled bloom filter over
	// its clustering values, sized from the distinct values the fragment
	// holds (this record is re-marshaled on heartbeats and parsed for
	// every read view, so it is only as cheap as the filter is small).
	// These are the column properties §7.2's partition elimination
	// evaluates. Empty when unknown (e.g. unfinalized).
	ClusterMin []byte `json:"cluster_min,omitempty"`
	ClusterMax []byte `json:"cluster_max,omitempty"`
	Bloom      []byte `json:"bloom,omitempty"`
}

// VisibleAt reports whether the fragment belongs to the snapshot at ts.
func (f *FragmentInfo) VisibleAt(ts truetime.Timestamp) bool {
	if ts < f.CreationTS {
		return false
	}
	return f.DeletionTS == 0 || ts < f.DeletionTS
}

// Live reports whether the fragment has no deletion timestamp (§6.2's
// watermark tracks the oldest live fragment).
func (f *FragmentInfo) Live() bool { return f.DeletionTS == 0 }

// Marshal/Unmarshal helpers: the SMS persists these records in Spanner.

// MarshalJSON-able wrappers with explicit helpers for call sites.
func MarshalStream(s *StreamInfo) []byte       { return mustJSON(s) }
func MarshalStreamlet(s *StreamletInfo) []byte { return mustJSON(s) }
func MarshalFragment(f *FragmentInfo) []byte   { return mustJSON(f) }

// UnmarshalStream parses a StreamInfo.
func UnmarshalStream(b []byte) (*StreamInfo, error) {
	var s StreamInfo
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("meta: stream: %w", err)
	}
	return &s, nil
}

// UnmarshalStreamlet parses a StreamletInfo.
func UnmarshalStreamlet(b []byte) (*StreamletInfo, error) {
	var s StreamletInfo
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("meta: streamlet: %w", err)
	}
	return &s, nil
}

// UnmarshalFragment parses a FragmentInfo.
func UnmarshalFragment(b []byte) (*FragmentInfo, error) {
	var f FragmentInfo
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("meta: fragment: %w", err)
	}
	return &f, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("meta: marshal: %v", err))
	}
	return b
}
