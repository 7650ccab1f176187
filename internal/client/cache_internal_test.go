package client

import "testing"

// putTest admits a placeholder entry: the cache never looks inside a
// value, only at its path, version and size.
func putTest(c *ReadCache, path string, version, size int64) {
	c.put(&cacheEntry{path: path, version: version, size: size, value: path})
}

func TestReadCacheNilSafe(t *testing.T) {
	var c *ReadCache // NewReadCache(0) returns nil: the disabled cache
	if NewReadCache(0) != nil || NewReadCache(-1) != nil {
		t.Fatal("non-positive budget must disable the cache")
	}
	if e, use := c.get("p", 0, nil); e != nil || use != (CacheStats{}) || c.peek("p", 0) != nil {
		t.Fatal("nil cache returned an entry")
	}
	putTest(c, "p", 0, 10)
	if n := c.Invalidate("p"); n != 0 {
		t.Fatalf("nil cache invalidated %d entries", n)
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

func TestReadCacheLRUEviction(t *testing.T) {
	c := NewReadCache(100)
	putTest(c, "a", 0, 40)
	putTest(c, "b", 0, 40)
	// Touch "a" so "b" is the least recently used entry; a peek of "b"
	// must not count as a touch.
	if e, _ := c.get("a", 0, nil); e == nil || c.peek("b", 0) == nil {
		t.Fatal("miss on a resident entry")
	}
	// 40+40+40 > 100: inserting "c" must evict "b", not "a".
	putTest(c, "c", 0, 40)
	if !c.Contains("a") || !c.Contains("c") || c.Contains("b") {
		t.Fatalf("eviction order wrong: a=%v b=%v c=%v",
			c.Contains("a"), c.Contains("b"), c.Contains("c"))
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.SizeBytes != 80 {
		t.Fatalf("size = %d, want 80", st.SizeBytes)
	}
	// An entry larger than the whole budget is refused outright.
	putTest(c, "huge", 0, 101)
	if c.Contains("huge") {
		t.Fatal("oversized entry was cached")
	}
}

func TestReadCacheBytesSavedAndHitRatio(t *testing.T) {
	c := NewReadCache(1 << 20)
	putTest(c, "a", 0, 1000)
	for i := 0; i < 2; i++ {
		if e, use := c.get("a", 0, nil); e == nil || use != (CacheStats{Hits: 1, BytesSaved: 1000}) {
			t.Fatalf("lookup %d: entry %v, disposition %+v, want one hit saving 1000 bytes", i, e, use)
		}
	}
	if e, use := c.get("missing", 0, nil); e != nil || use != (CacheStats{Misses: 1}) {
		t.Fatalf("absent path: entry %v, disposition %+v, want one miss", e, use)
	}
	// Peeks are silent: the scan that peeks already counted its lookup.
	c.peek("a", 0)
	c.peek("missing", 0)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
	if st.BytesSaved != 2000 {
		t.Fatalf("bytesSaved = %d, want 2000", st.BytesSaved)
	}
	if got := st.HitRatio(); got < 0.66 || got > 0.67 {
		t.Fatalf("hit ratio = %v, want 2/3", got)
	}
}

func TestReadCacheVersionMismatch(t *testing.T) {
	c := NewReadCache(1 << 20)
	putTest(c, "p", 512, 100)
	if e, _ := c.get("p", 512, nil); e == nil || e.value != "p" {
		t.Fatal("expected hit at matching version")
	}
	// A record refresh moved the sealed boundary: the entry is stale, for
	// the counted and the silent lookup alike.
	if e, use := c.get("p", 768, nil); e != nil || use.Misses != 1 || c.peek("p", 768) != nil {
		t.Fatal("served columns decoded under a different sealed boundary")
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", st.Hits, st.Misses)
	}
	// The refill under the new boundary replaces the stale entry.
	putTest(c, "p", 768, 120)
	fresh, _ := c.get("p", 768, nil)
	stale, _ := c.get("p", 512, nil)
	if fresh == nil || stale != nil {
		t.Fatal("refill did not replace the stale entry")
	}
	if st := c.Stats(); st.Entries != 1 || st.SizeBytes != 120 {
		t.Fatalf("after refill: %+v", st)
	}
}

func TestReadCacheInvalidate(t *testing.T) {
	c := NewReadCache(1 << 20)
	putTest(c, "a", 0, 10)
	putTest(c, "b", 0, 20)
	if n := c.Invalidate("a", "nope"); n != 1 {
		t.Fatalf("invalidated %d, want 1", n)
	}
	if c.Contains("a") || !c.Contains("b") {
		t.Fatal("wrong entry invalidated")
	}
	st := c.Stats()
	if st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
	if st.SizeBytes != 20 {
		t.Fatalf("size = %d, want 20", st.SizeBytes)
	}
	if e, _ := c.get("a", 0, nil); e != nil {
		t.Fatal("invalidated entry still served")
	}
}

func TestReadCacheOverwriteSamePath(t *testing.T) {
	c := NewReadCache(1 << 20)
	putTest(c, "a", 0, 10)
	putTest(c, "a", 0, 30)
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
	if st.SizeBytes != 30 {
		t.Fatalf("size = %d, want 30 (old entry's bytes must be released)", st.SizeBytes)
	}
}
