// Package disktier implements the on-disk middle tier of the fragment read
// cache. It sits between the in-RAM LRU (internal/client.ReadCache) and
// simulated Colossus: a RAM miss falls through to disk, and a disk miss is
// fetched from Colossus and back-filled into both tiers.
//
// Entries are raw fragment file bytes keyed by fragment path. Each entry is
// stored as a single file in the cache directory using a content-addressed
// name (hash of the fragment path) and a self-describing on-disk format with
// the original path and a CRC32C of the payload embedded, so a corrupt or
// recycled file can never be served as a different fragment. The tier is
// byte-bounded with LRU eviction, and like the RAM cache a nil *Tier is valid
// and means "disabled" — every method no-ops.
package disktier

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"vortex/internal/bin"
)

// On-disk entry format (all integers written with binary varint / fixed LE):
//
//	magic   "VXDT"          4 bytes
//	version 0x01            1 byte
//	pathLen uvarint
//	path    pathLen bytes   fragment path the payload belongs to
//	crc     uint32 LE       CRC32C (Castagnoli) of payload
//	payLen  uvarint
//	payload payLen bytes    raw fragment file bytes
const (
	magic   = "VXDT"
	version = 0x01
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by DecodeEntry. All decode failures are terminal for the
// entry: the tier treats them as a miss and unlinks the file.
var (
	ErrBadMagic   = errors.New("disktier: bad magic")
	ErrBadVersion = errors.New("disktier: unsupported version")
	ErrTruncated  = errors.New("disktier: truncated entry")
	ErrChecksum   = errors.New("disktier: payload checksum mismatch")
)

// EncodeEntry serialises one cache entry. The payload is the raw fragment
// file bytes; path is the fragment path used as the cache key.
func EncodeEntry(path string, payload []byte) []byte {
	var hdr [binary.MaxVarintLen64]byte
	buf := make([]byte, 0, len(magic)+1+2*binary.MaxVarintLen64+len(path)+4+len(payload))
	buf = append(buf, magic...)
	buf = append(buf, version)
	n := binary.PutUvarint(hdr[:], uint64(len(path)))
	buf = append(buf, hdr[:n]...)
	buf = append(buf, path...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	n = binary.PutUvarint(hdr[:], uint64(len(payload)))
	buf = append(buf, hdr[:n]...)
	buf = append(buf, payload...)
	return buf
}

// DecodeEntry parses and verifies an on-disk entry, returning the fragment
// path and payload. The payload aliases data; callers that retain it beyond
// the lifetime of data must copy.
func DecodeEntry(data []byte) (path string, payload []byte, err error) {
	if len(data) < len(magic)+1 || string(data[:len(magic)]) != magic {
		return "", nil, ErrBadMagic
	}
	if data[len(magic)] != version {
		return "", nil, ErrBadVersion
	}
	r := bin.NewReader(data[len(magic)+1:])
	rawPath := r.Block()
	crc := r.Uint32()
	payload = r.Block()
	if r.Err() != nil || r.Len() != 0 {
		return "", nil, ErrTruncated
	}
	path = string(rawPath)
	if crc32.Checksum(payload, castagnoli) != crc {
		return "", nil, ErrChecksum
	}
	return path, payload, nil
}

// Stats is a point-in-time snapshot of tier counters.
type Stats struct {
	Hits            int64
	Misses          int64
	BytesSaved      int64 // payload bytes served from disk instead of Colossus
	Evictions       int64
	Invalidations   int64
	Corruptions     int64 // entries dropped for failing CRC / format checks
	PrefetchFetched int64 // fragments pulled in by the prefetcher
	PrefetchSkipped int64 // prefetch candidates already cached or in flight
	Entries         int
	SizeBytes       int64
	MaxBytes        int64
}

type entry struct {
	path string
	file string // absolute path of the cache file
	size int64  // payload size (accounting unit for the byte bound)
}

// Tier is the on-disk cache. All methods are safe for concurrent use and
// safe on a nil receiver (disabled tier).
type Tier struct {
	dir      string
	maxBytes int64
	gen      atomic.Int64 // file-name generation: unlinks never hit newer entries

	mu      sync.Mutex
	entries map[string]*list.Element // fragment path -> *entry element
	lru     *list.List               // front = most recent
	size    int64

	hits            int64
	misses          int64
	bytesSaved      int64
	evictions       int64
	invalidations   int64
	corruptions     int64
	prefetchFetched int64
	prefetchSkipped int64
}

// Open creates (or reuses) dir as a disk cache bounded at maxBytes. Any
// files already present are stale state from a previous process and are
// removed — the tier always starts cold so it can never serve an entry that
// predates the current region's GC history. Returns nil (disabled) if
// maxBytes <= 0.
func Open(dir string, maxBytes int64) (*Tier, error) {
	if maxBytes <= 0 {
		return nil, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disktier: %w", err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disktier: %w", err)
	}
	for _, de := range names {
		if !de.IsDir() {
			os.Remove(filepath.Join(dir, de.Name()))
		}
	}
	return &Tier{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}, nil
}

// Dir returns the cache directory ("" for a disabled tier).
func (t *Tier) Dir() string {
	if t == nil {
		return ""
	}
	return t.dir
}

// fileFor names the cache file for one (path, generation): the hash
// keeps arbitrary fragment paths filesystem-safe, the generation makes
// every Put's file unique so a racing unlink of an older entry can
// never delete a newer one that replaced it under the same path.
func (t *Tier) fileFor(path string, gen int64) string {
	sum := sha256.Sum256([]byte(path))
	return filepath.Join(t.dir, fmt.Sprintf("%s-%d.vxdt", hex.EncodeToString(sum[:16]), gen))
}

// Get returns the cached payload for path, or ok=false on a miss. Corrupt
// entries (bad CRC, wrong embedded path, unreadable file) are unlinked and
// reported as misses.
func (t *Tier) Get(path string) ([]byte, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	el, ok := t.entries[path]
	if !ok {
		t.misses++
		t.mu.Unlock()
		return nil, false
	}
	file := el.Value.(*entry).file // copy under lock: Put may swap it
	t.lru.MoveToFront(el)
	t.mu.Unlock()

	data, err := os.ReadFile(file)
	if err == nil {
		var gotPath string
		var payload []byte
		gotPath, payload, err = DecodeEntry(data)
		if err == nil && gotPath != path {
			err = fmt.Errorf("disktier: entry path mismatch: %q != %q", gotPath, path)
		}
		if err == nil {
			t.mu.Lock()
			t.hits++
			t.bytesSaved += int64(len(payload))
			t.mu.Unlock()
			return payload, true
		}
	}
	// Unreadable or corrupt: drop the entry and miss. If a concurrent
	// Invalidate, eviction, or overwrite already retired the file we
	// read (the live entry is gone or points elsewhere), that is an
	// ordinary miss, not a corruption.
	t.mu.Lock()
	t.misses++
	if cur, ok := t.entries[path]; ok && cur == el && cur.Value.(*entry).file == file {
		t.corruptions++
		t.removeLocked(el)
		t.mu.Unlock()
		os.Remove(file)
		return nil, false
	}
	t.mu.Unlock()
	return nil, false
}

// Put stores payload (raw fragment file bytes) under path, evicting LRU
// entries as needed. Entries larger than the tier bound are rejected.
func (t *Tier) Put(path string, payload []byte) {
	if t == nil || path == "" {
		return
	}
	size := int64(len(payload))
	if size > t.maxBytes {
		return
	}
	file := t.fileFor(path, t.gen.Add(1))
	// Write outside the lock via temp file + rename so a concurrent Get can
	// never observe a partial entry.
	tmp, err := os.CreateTemp(t.dir, "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(EncodeEntry(path, payload))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), file); err != nil {
		os.Remove(tmp.Name())
		return
	}

	t.mu.Lock()
	var victims []string
	if el, ok := t.entries[path]; ok {
		// Overwrite: swap in the new generation's file, retire the old.
		e := el.Value.(*entry)
		victims = append(victims, e.file)
		e.file = file
		t.size += size - e.size
		e.size = size
		t.lru.MoveToFront(el)
	} else {
		el := t.lru.PushFront(&entry{path: path, file: file, size: size})
		t.entries[path] = el
		t.size += size
	}
	for t.size > t.maxBytes {
		back := t.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		if e.path == path {
			break
		}
		victims = append(victims, e.file)
		t.removeLocked(back)
		t.evictions++
	}
	t.mu.Unlock()
	for _, f := range victims {
		os.Remove(f)
	}
}

// Contains reports whether path currently has a disk entry, without touching
// LRU order or counters.
func (t *Tier) Contains(path string) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[path]
	return ok
}

// Invalidate unlinks the entries for the given fragment paths. The files are
// removed from disk before Invalidate returns, so once the GC fanout
// completes no deleted fragment can be served from this tier.
func (t *Tier) Invalidate(paths ...string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var victims []string
	for _, p := range paths {
		if el, ok := t.entries[p]; ok {
			victims = append(victims, el.Value.(*entry).file)
			t.removeLocked(el)
			t.invalidations++
		}
	}
	t.mu.Unlock()
	for _, f := range victims {
		os.Remove(f)
	}
}

// removeLocked drops el from the index and LRU list. Caller holds t.mu and
// is responsible for unlinking the file outside the lock.
func (t *Tier) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	delete(t.entries, e.path)
	t.lru.Remove(el)
	t.size -= e.size
}

// CountPrefetchFetched records one fragment warmed by the prefetcher.
func (t *Tier) CountPrefetchFetched() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.prefetchFetched++
	t.mu.Unlock()
}

// CountPrefetchSkipped records one prefetch candidate skipped because it was
// already cached or being fetched.
func (t *Tier) CountPrefetchSkipped() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.prefetchSkipped++
	t.mu.Unlock()
}

// Stats returns a snapshot of tier counters. Zero value on a nil tier.
func (t *Tier) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Hits:            t.hits,
		Misses:          t.misses,
		BytesSaved:      t.bytesSaved,
		Evictions:       t.evictions,
		Invalidations:   t.invalidations,
		Corruptions:     t.corruptions,
		PrefetchFetched: t.prefetchFetched,
		PrefetchSkipped: t.prefetchSkipped,
		Entries:         len(t.entries),
		SizeBytes:       t.size,
		MaxBytes:        t.maxBytes,
	}
}
