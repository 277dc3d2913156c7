package chunk

import (
	"runtime"
	"testing"
)

// TestRunCoversEachIndexOnce: the chunks of Run are consecutive, in chunk
// order, and cover [0, n) exactly, for chunk counts below, at and above n.
func TestRunCoversEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 4099} {
		for _, k := range []int{0, 1, 2, 3, 8, 5000} {
			seen := make([]int, n)
			los, his := make([]int, max(k, 1)), make([]int, max(k, 1))
			Run(n, k, func(c, lo, hi int) {
				los[c], his[c] = lo, hi
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, s := range seen {
				if s != 1 {
					t.Fatalf("n=%d k=%d: index %d run %d times", n, k, i, s)
				}
			}
			for c := 1; c < len(los); c++ {
				if los[c] != his[c-1] {
					t.Fatalf("n=%d k=%d: chunk %d starts at %d, chunk %d ended at %d", n, k, c, los[c], c-1, his[c-1])
				}
			}
		}
	}
}

func TestCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct{ n, want int }{
		{0, 1}, {2*MinRows - 1, 1}, {2 * MinRows, 2}, {3 * MinRows, 3}, {100 * MinRows, 4},
	} {
		if got := Count(tc.n); got != tc.want {
			t.Fatalf("Count(%d) at GOMAXPROCS 4 = %d, want %d", tc.n, got, tc.want)
		}
	}
}
