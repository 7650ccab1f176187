package workpool

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunCallsEveryJobOnceOnBoundedWorkers(t *testing.T) {
	for _, tc := range []struct{ n, size, workers int }{
		{0, 4, 0}, {1, 4, 1}, {10, 1, 1}, {10, 3, 3}, {3, 10, 3}, {5, 0, 1},
	} {
		calls := make([]atomic.Int32, tc.n)
		var mu sync.Mutex
		seen := map[int]bool{}
		err := Run(tc.n, tc.size, func(w, i int) error {
			calls[i].Add(1)
			mu.Lock()
			seen[w] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d size=%d: %v", tc.n, tc.size, err)
		}
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("n=%d size=%d: job %d ran %d times", tc.n, tc.size, i, got)
			}
		}
		for w := range seen {
			if w < 0 || w >= tc.workers {
				t.Fatalf("n=%d size=%d: worker %d outside [0, %d)", tc.n, tc.size, w, tc.workers)
			}
		}
	}
}

// TestRunReturnsTheLowestFailure: whichever failure is seen first, every
// job below the lowest failed one has run, and its error is returned.
func TestRunReturnsTheLowestFailure(t *testing.T) {
	const n = 200
	for _, size := range []int{1, 2, 8} {
		for _, fail := range [][]int{{0}, {7}, {50, 9}, {199}, {3, 4, 5}} {
			bad := map[int]bool{}
			lowest := n
			for _, i := range fail {
				bad[i] = true
				lowest = min(lowest, i)
			}
			ran := make([]atomic.Bool, n)
			err := Run(n, size, func(_, i int) error {
				ran[i].Store(true)
				if bad[i] {
					return fmt.Errorf("job %d", i)
				}
				return nil
			})
			if want := fmt.Sprintf("job %d", lowest); err == nil || err.Error() != want {
				t.Fatalf("size %d, failing %v: got %v, want %s", size, fail, err, want)
			}
			for i := range lowest {
				if !ran[i].Load() {
					t.Fatalf("size %d, failing %v: job %d below the failure never ran", size, fail, i)
				}
			}
		}
	}
}

// TestRunStopsHandingOutJobs: after a failure no new index is handed out;
// with one worker, none past the failed one runs.
func TestRunStopsHandingOutJobs(t *testing.T) {
	errStop := errors.New("stop")
	last := -1
	err := Run(1000, 1, func(_, i int) error {
		last = i
		if i == 10 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) || last != 10 {
		t.Fatalf("got %v after job %d; want the failure of job 10 to be the last", err, last)
	}
}
