// Package chunk holds the two fan-outs of the repository. Run cuts a
// data-parallel loop into consecutive ranges, one per worker: the RP-tree's
// split, the diameter iteration inside it, SQ8 quantization, Compact's row
// copy and the work queue's bulk distances, where every index costs about
// the same. Claim hands out indices one at a time from a shared counter:
// the per-group builds, batch queries, exact ground truth and per-query
// short lists, where one index can cost many times another.
//
// Callers keep their results independent of the number of chunks or
// workers: a chunk or a claimed index writes only its own rows, and a
// reduction keeps one partial per chunk and combines the partials in chunk
// order, so that the first index wins a tie whatever the cut.
package chunk

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// MinRows is the fewest rows a chunk holds: a loop over fewer than twice
// as many rows runs inline on the caller, where a goroutine would cost more
// than it saves.
const MinRows = 1024

// Count returns how many chunks Run should cut a loop over n rows into:
// one per GOMAXPROCS worker, fewer for a short loop, and never less than
// one.
func Count(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/MinRows))
}

// Run cuts [0, n) into k consecutive ranges of near-equal length and calls
// fn(c, lo, hi) for chunk c, each chunk but the first on a goroutine of its
// own and the first on the caller's; it returns when all have. With k ≤ 1
// it is fn(0, 0, n), inline.
func Run(n, k int, fn func(c, lo, hi int)) {
	if k <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 1; c < k; c++ {
		go func() {
			defer wg.Done()
			fn(c, c*n/k, (c+1)*n/k)
		}()
	}
	fn(0, 0, n/k)
	wg.Wait()
}

// Claim runs worker(w, next) on min(workers, n) workers, w = 0, 1, ...,
// each but worker 0 on a goroutine of its own and worker 0 on the caller's,
// and returns when all have; with one worker it is inline, and with n = 0
// no worker starts. next claims the lowest index of [0, n) that no worker
// has claimed and reports false once none is left, so every index is
// claimed exactly once. A worker sets up what it keeps across its claims
// (a scratch, a heap, a partial result under w) before its first call to
// next and releases it after its last.
//
// A worker that returns an error stops the claims: from then on next
// reports false everywhere, and the indices already claimed run to their
// end. Claim returns the error of the lowest-numbered worker that failed.
func Claim(n, workers int, worker func(w int, next func() (int, bool)) error) error {
	workers = min(max(workers, 1), n)
	if workers == 0 {
		return nil
	}
	var claimed atomic.Int64
	next := func() (int, bool) {
		i := claimed.Add(1) - 1
		return int(i), i < int64(n)
	}
	errs := make([]error, workers)
	run := func(w int) {
		if errs[w] = worker(w, next); errs[w] != nil {
			claimed.Store(int64(n)) // no claim succeeds from here on
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
