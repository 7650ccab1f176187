// Package workpool runs a list of independent jobs on a bounded number
// of goroutines: the one loop behind the client's parallel scans, the
// query engine's partial aggregations and the optimizer's conversion
// stages.
package workpool

import (
	"sync"
	"sync/atomic"
)

// Run calls job(w, i) for every i in [0, n) on min(size, n) goroutines,
// and returns once every call has returned. w, in [0, size), names the
// goroutine making the call, so a job can keep scratch state per worker.
// Indexes are handed out in increasing order and none is handed out
// after a call has failed, so every index below a failed one has run:
// Run returns the error of the lowest index that failed, the one a loop
// over the jobs in order would have stopped at.
func Run(n, size int, job func(w, i int) error) error {
	size = min(max(size, 1), n)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := range size {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if errs[i] = job(w, i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
