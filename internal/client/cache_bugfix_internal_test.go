package client

import (
	"fmt"
	"sync"
	"testing"

	"vortex/internal/disktier"
)

// TestOversizeRejectsCounted proves a put larger than the byte bound is
// no longer a silent drop: the entry is still refused (admitting it
// would evict the whole cache) but the rejection is counted.
func TestOversizeRejectsCounted(t *testing.T) {
	c := NewReadCache(100)
	putTest(c, "small", 0, 40)
	putTest(c, "huge", 0, 500)
	putTest(c, "hugewos", 64, 101)
	st := c.Stats()
	if st.OversizeRejects != 2 {
		t.Fatalf("OversizeRejects = %d, want 2 (%+v)", st.OversizeRejects, st)
	}
	if !c.Contains("small") || c.Contains("huge") || c.Contains("hugewos") {
		t.Fatal("oversize entries admitted or small entry dropped")
	}
	if c.Stats().Evictions != 0 {
		t.Fatal("oversize rejection must not evict resident entries")
	}
}

// TestDiskOnlyCacheNonNil: with a disk tier but no RAM budget the cache
// object must still exist (GC fanout registers it; fall-through needs
// it) while the RAM LRU stores nothing.
func TestDiskOnlyCacheNonNil(t *testing.T) {
	tier, err := disktier.Open(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(0, tier)
	if c == nil {
		t.Fatal("disk-only cache must be non-nil")
	}
	putTest(c, "p", 0, 10)
	if c.Contains("p") {
		t.Fatal("RAM tier admitted an entry with no RAM budget")
	}
	if st := c.Stats(); st.OversizeRejects != 0 {
		t.Fatalf("disabled RAM tier counted an oversize reject: %+v", st)
	}
	c.diskPut("p", []byte("bytes"))
	if _, ok := c.diskGet("p"); !ok {
		t.Fatal("disk tier not reachable through the cache")
	}
	c.Invalidate("p")
	if _, ok := c.diskGet("p"); ok {
		t.Fatal("Invalidate did not unlink the disk entry")
	}
	if st := c.Stats(); st.DiskInvalidations != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if NewTiered(0, nil) != nil {
		t.Fatal("cache with both tiers disabled must be nil")
	}
}

// TestCacheRace exercises put, get and peek under two versions racing
// Invalidate and LRU eviction under a tiny byte bound. The assertions
// are the race detector's — the test just has to survive a hostile
// interleaving.
func TestCacheRace(t *testing.T) {
	tier, err := disktier.Open(t.TempDir(), 8<<10)
	if err != nil {
		t.Fatal(err)
	}
	c := NewTiered(300, tier) // ~3 entries: constant eviction pressure
	paths := make([]string, 8)
	for i := range paths {
		paths[i] = fmt.Sprintf("frag-%d", i)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				p := paths[(g+i)%len(paths)]
				switch i % 6 {
				case 0:
					putTest(c, p, 0, 100)
				case 1:
					c.get(p, 0, nil)
				case 2:
					putTest(c, p, 64, 100)
				case 3:
					if e := c.peek(p, 64); e != nil && e.version != 64 {
						t.Errorf("peek(%s, 64) returned version %d", p, e.version)
					}
				case 4:
					c.diskPut(p, []byte("payload"))
					c.diskGet(p)
				default:
					c.Invalidate(p)
				}
			}
		}(g)
	}
	wg.Wait()
}
