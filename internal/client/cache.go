package client

import (
	"container/list"
	"sync"

	"vortex/internal/disktier"
)

// ReadCache is a byte-bounded LRU over decoded fragment contents, keyed
// by fragment path. It is the client half of the paper's §7 bargain:
// sealed fragments are immutable, so repeated selective scans should not
// re-fetch and re-decode them from Colossus on every query.
//
// Every entry has one shape — {path, version, size, value} — and holds a
// fragment decoded once into columns: a *ros.Reader (lazily decoded
// encoded vectors, any column on demand) or a sealed WOS file's
// *wosColumns (PLAIN vectors, typed where a field is of one scalar kind)
// for the fields the scans that filled it read. Nothing per snapshot or
// per consumer is kept beside it: a scan is a wire.Selection computed
// over the shared columns.
//
// The cache is snapshot-safe by construction:
//
//   - Only immutable bytes are cached. ROS fragment files never change
//     after being written (version 0), and a sealed-WOS entry's version
//     is the fragment's CommittedBytes, so a record refresh that moves
//     the sealed boundary invalidates the entry. Live streamlet-tail
//     files bypass the cache entirely (the scan path never consults it
//     for live assignments).
//   - An entry holds every row of the fragment, not a per-snapshot
//     subset: snapshot filtering (block/row timestamps, deletion masks)
//     is re-applied on every scan as a selection, so one entry serves
//     every snapshot correctly. A WOS entry holds the columns of the
//     fields it was decoded for (held) and serves only a scan that
//     reads no other; a scan that does misses, and its fill decodes the
//     fields of both, widening the entry.
//   - Physical file deletion (SMS groomer, heartbeat-driven server GC)
//     calls Invalidate with the deleted paths before any later scan can
//     miss against the now-absent file. This matters because Spanner is
//     MVCC: an old-snapshot read view still lists a GC'd fragment, and
//     without invalidation the cache would happily serve its bytes
//     forever.
//
// A nil *ReadCache is valid and disabled: every method no-ops.
//
// The cache may carry an optional on-disk middle tier (disktier.Tier)
// holding raw fragment file bytes: a RAM miss falls through to disk and
// a disk miss fetches from Colossus, back-filling both tiers. The disk
// tier has its own lock — file IO never runs under this cache's mutex.
type ReadCache struct {
	mu       sync.Mutex
	maxBytes int64
	size     int64
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used

	disk *disktier.Tier // optional middle tier; nil = RAM-only

	hits            int64
	misses          int64
	bytesSaved      int64
	evictions       int64
	invalidations   int64
	oversizeRejects int64
}

// cacheEntry is one fragment's decoded columns. Entries are immutable
// once put, and the value is shared across scans: every consumer must
// treat it as read-only.
type cacheEntry struct {
	path    string
	version int64 // CommittedBytes the value was decoded under; 0 for ROS
	size    int64 // raw file bytes this entry saves per hit
	value   any   // *ros.Reader or *wosColumns
}

// NewReadCache returns a cache bounded to maxBytes of raw fragment
// bytes, or nil (disabled) when maxBytes <= 0.
func NewReadCache(maxBytes int64) *ReadCache {
	return NewTiered(maxBytes, nil)
}

// NewTiered returns a cache with an optional on-disk middle tier. The
// result is nil (fully disabled) only when both tiers are disabled;
// with maxBytes <= 0 and a live disk tier the RAM LRU stores nothing
// but the cache object still exists, so GC invalidation fanout and the
// disk fall-through keep working.
func NewTiered(maxBytes int64, disk *disktier.Tier) *ReadCache {
	if maxBytes <= 0 && disk == nil {
		return nil
	}
	return &ReadCache{
		maxBytes: maxBytes,
		disk:     disk,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// CacheStats is a point-in-time snapshot of the cache counters, RAM
// tier first, then the optional on-disk middle tier (all Disk* fields
// are zero without one).
type CacheStats struct {
	Hits            int64
	Misses          int64
	BytesSaved      int64 // raw Colossus bytes not re-read thanks to hits
	Evictions       int64
	Invalidations   int64
	OversizeRejects int64 // puts dropped because one entry exceeds MaxBytes
	Entries         int
	SizeBytes       int64
	MaxBytes        int64

	DiskHits          int64
	DiskMisses        int64
	DiskBytesSaved    int64 // raw Colossus bytes served from disk instead
	DiskEvictions     int64
	DiskInvalidations int64
	DiskCorruptions   int64 // disk entries dropped for failing CRC/format checks
	PrefetchFetched   int64 // fragments warmed into the disk tier ahead of scans
	PrefetchSkipped   int64 // prefetch candidates already cached or in flight
	DiskEntries       int
	DiskSizeBytes     int64
	DiskMaxBytes      int64
}

// HitRatio returns Hits/(Hits+Misses), or 0 with no lookups.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the current counters across both tiers. Safe on a nil
// cache.
func (c *ReadCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	ds := c.disk.Stats() // own lock; take it before c.mu to keep ordering trivial
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:            c.hits,
		Misses:          c.misses,
		BytesSaved:      c.bytesSaved,
		Evictions:       c.evictions,
		Invalidations:   c.invalidations,
		OversizeRejects: c.oversizeRejects,
		Entries:         len(c.entries),
		SizeBytes:       c.size,
		MaxBytes:        c.maxBytes,

		DiskHits:          ds.Hits,
		DiskMisses:        ds.Misses,
		DiskBytesSaved:    ds.BytesSaved,
		DiskEvictions:     ds.Evictions,
		DiskInvalidations: ds.Invalidations,
		DiskCorruptions:   ds.Corruptions,
		PrefetchFetched:   ds.PrefetchFetched,
		PrefetchSkipped:   ds.PrefetchSkipped,
		DiskEntries:       ds.Entries,
		DiskSizeBytes:     ds.SizeBytes,
		DiskMaxBytes:      ds.MaxBytes,
	}
}

// Disk returns the on-disk middle tier, or nil. Safe on a nil cache.
func (c *ReadCache) Disk() *disktier.Tier {
	if c == nil {
		return nil
	}
	return c.disk
}

// diskGet returns raw fragment file bytes from the disk tier, or
// ok=false on a miss (or with no disk tier).
func (c *ReadCache) diskGet(path string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.disk.Get(path)
}

// diskPut back-fills raw fragment file bytes into the disk tier.
func (c *ReadCache) diskPut(path string, data []byte) {
	if c == nil {
		return
	}
	c.disk.Put(path, data)
}

// held is the set of fields e's value holds: a WOS file's decoded
// fields, or every field for a ROS reader, which decodes any column on
// demand.
func (e *cacheEntry) held() fieldSet {
	if d, ok := e.value.(*wosColumns); ok {
		return d.fields
	}
	return nil
}

// get is the one counted lookup of a scan. It returns the entry for
// path decoded under version holding every field in fields, or nil, and
// the same verdict as the caller's share of the counters: a hit moves
// the entry to the LRU front and credits its bytes, anything else —
// absent, decoded under a different sealed boundary, or lacking a field
// (the next put overwrites it) — is a miss. A disabled cache counts,
// and reports, nothing.
func (c *ReadCache) get(path string, version int64, fields fieldSet) (*cacheEntry, CacheStats) {
	if c == nil {
		return nil, CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[path]
	if !ok || el.Value.(*cacheEntry).version != version || !el.Value.(*cacheEntry).held().covers(fields) {
		c.misses++
		return nil, CacheStats{Misses: 1}
	}
	e := el.Value.(*cacheEntry)
	c.lru.MoveToFront(el)
	c.hits++
	c.bytesSaved += e.size
	return e, CacheStats{Hits: 1, BytesSaved: e.size}
}

// peek returns the entry for path decoded under version, whatever
// fields it holds, without touching counters or LRU order. A scan's
// miss uses it to learn which fields a fill must keep, and the
// singleflight fill to re-check after winning the flight: the scan
// already counted its miss, so a silent peek keeps accounting
// one-per-scan.
func (c *ReadCache) peek(path string, version int64) *cacheEntry {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[path]; ok && el.Value.(*cacheEntry).version == version {
		return el.Value.(*cacheEntry)
	}
	return nil
}

// put admits e, replacing any entry for the same path and evicting
// from the LRU tail until the byte bound holds.
func (c *ReadCache) put(e *cacheEntry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes <= 0 {
		return // RAM tier disabled (disk-only configuration)
	}
	if e.size > c.maxBytes {
		// Admitting it would evict the whole cache for one entry. A
		// misconfigured tiny cache used to report only misses here with no
		// explanation; the counter makes the drop observable.
		c.oversizeRejects++
		return
	}
	if old, ok := c.entries[e.path]; ok {
		c.size -= old.Value.(*cacheEntry).size
		c.lru.Remove(old)
		delete(c.entries, e.path)
	}
	c.entries[e.path] = c.lru.PushFront(e)
	c.size += e.size
	for c.size > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		v := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.entries, v.path)
		c.size -= v.size
		c.evictions++
	}
}

// Invalidate drops the entries for the given fragment paths and returns
// how many RAM entries were present. GC hooks (SMS groomer,
// stream-server heartbeat deletion) call this with the paths they
// physically deleted. The disk tier is unlinked FIRST, before the RAM
// entries are dropped and before Invalidate returns: a scan racing the
// GC can then at worst hit the still-valid RAM entry, never re-fill RAM
// from a disk entry that outlived its fragment.
func (c *ReadCache) Invalidate(paths ...string) int {
	if c == nil {
		return 0
	}
	c.disk.Invalidate(paths...)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, p := range paths {
		if el, ok := c.entries[p]; ok {
			c.size -= el.Value.(*cacheEntry).size
			c.lru.Remove(el)
			delete(c.entries, p)
			c.invalidations++
			n++
		}
	}
	return n
}

// Contains reports whether path currently has an entry (test helper).
func (c *ReadCache) Contains(path string) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[path]
	return ok
}
