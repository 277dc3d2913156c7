// Package chunk runs a data-parallel loop over consecutive ranges of its
// items, one range per GOMAXPROCS worker. It is the one fan-out the
// sequential parts of a build share (the RP-tree's split and the diameter
// iteration inside it): they keep their order of random draws and of
// decisions, and only the per-row work inside one step goes wide.
//
// Callers keep their results independent of the number of chunks: a chunk
// writes only its own rows, and a reduction keeps one partial per chunk
// and combines the partials in chunk order, so that the first index wins a
// tie whatever the cut.
package chunk

import (
	"runtime"
	"sync"
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
