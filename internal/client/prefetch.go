package client

import "sync"

// prefetchInFlight bounds concurrent prefetch fetches.
const prefetchInFlight = 4

// Prefetch asynchronously warms the disk tier with the raw bytes of the
// given assignments' fragments, so the scanner that follows hits local
// disk instead of paying simulated-Colossus latency — the GPU-Vortex
// trick of decoupling IO from compute, one level down the hierarchy.
//
// Live assignments are skipped (their files are still being appended
// to), as are fragments already resident in either tier. At most
// prefetchInFlight fetches run concurrently; each goes through
// fragmentBytes, so a demand scan racing the prefetcher coalesces onto
// the same flight instead of fetching twice.
//
// Prefetch returns immediately; the channel closes when every candidate
// has been fetched or skipped (tests and benchmarks use it to warm
// deterministically — production callers just drop it).
func (c *Client) Prefetch(as []Assignment) <-chan struct{} {
	done := make(chan struct{})
	tier := c.cache.Disk()
	if tier == nil {
		close(done)
		return done
	}
	sem := make(chan struct{}, prefetchInFlight)
	var wg sync.WaitGroup
	for _, a := range as {
		if a.Live || a.Frag.Path == "" {
			continue
		}
		if c.cache.Contains(a.Frag.Path) || tier.Contains(a.Frag.Path) {
			tier.CountPrefetchSkipped()
			continue
		}
		a := a
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if tier.Contains(a.Frag.Path) {
				// Another prefetch or a demand scan got there first.
				tier.CountPrefetchSkipped()
				return
			}
			if _, _, err := c.fragmentBytes(a.Frag.Clusters, a.Frag.Path); err == nil {
				tier.CountPrefetchFetched()
			}
		}()
	}
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}
