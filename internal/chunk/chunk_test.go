package chunk

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// TestClaimEachIndexOnce: every index of [0, n) is claimed exactly once,
// by one of min(workers, n) workers (one when workers ≤ 1, none for
// n = 0), and each worker is started once.
func TestClaimEachIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 4099} {
		for _, workers := range []int{0, 1, 2, 8, 64} {
			hits := make([]atomic.Int32, n)
			want := min(max(workers, 1), n)
			started := make([]atomic.Int32, max(want, 1))
			err := Claim(n, workers, func(w int, next func() (int, bool)) error {
				if w < 0 || w >= want {
					t.Errorf("n=%d workers=%d: worker %d started", n, workers, w)
					return nil
				}
				started[w].Add(1)
				for i, ok := next(); ok; i, ok = next() {
					hits[i].Add(1)
				}
				if _, ok := next(); ok {
					t.Errorf("n=%d workers=%d: a claim succeeded after next reported false", n, workers)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("n=%d workers=%d: index %d claimed %d times", n, workers, i, h)
				}
			}
			for w := range want {
				if s := started[w].Load(); s != 1 {
					t.Fatalf("n=%d workers=%d: worker %d started %d times", n, workers, w, s)
				}
			}
		}
	}
}

// goid returns the id of the calling goroutine, from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf), "goroutine "), " ")
	return id
}

// TestClaimInlineAndFirstWorkerOnCaller: with one worker Claim runs it on
// the caller's goroutine and starts none; with several, worker 0 is the
// caller's and every other worker has a goroutine of its own.
func TestClaimInlineAndFirstWorkerOnCaller(t *testing.T) {
	caller := goid()
	for _, workers := range []int{-3, 0, 1, 4} {
		ids := make([]string, max(workers, 1))
		Claim(100, workers, func(w int, next func() (int, bool)) error {
			ids[w] = goid()
			for _, ok := next(); ok; _, ok = next() {
			}
			return nil
		})
		for w, id := range ids {
			if (id == caller) != (w == 0) {
				t.Fatalf("workers=%d: worker %d ran on goroutine %s, the caller is %s", workers, w, id, caller)
			}
		}
	}
}

// TestClaimStopsAfterFailure: once a worker has returned an error no claim
// succeeds, the claims already made run to their end, and Claim returns
// the error of the lowest-numbered worker that failed.
func TestClaimStopsAfterFailure(t *testing.T) {
	fail := errors.New("fail")
	t.Run("inline", func(t *testing.T) {
		var claims int
		err := Claim(50, 1, func(_ int, next func() (int, bool)) error {
			for i, ok := next(); ok; i, ok = next() {
				claims++
				if i == 3 {
					return fail
				}
			}
			return nil
		})
		if err != fail || claims != 4 {
			t.Fatalf("err %v after %d claims, want %v after 4", err, claims, fail)
		}
	})
	t.Run("workers", func(t *testing.T) {
		// Worker 1 fails on its first claim. Worker 0, on the caller's
		// goroutine, waits until worker 1's goroutine has exited — after
		// Claim recorded the failure — and then must find nothing left.
		before := runtime.NumGoroutine()
		failed := make(chan struct{})
		var late atomic.Bool
		err := Claim(1000, 2, func(w int, next func() (int, bool)) error {
			if w == 1 {
				next()
				close(failed)
				return fail
			}
			<-failed
			for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Error("worker 1's goroutine did not exit")
					break
				}
				runtime.Gosched()
			}
			_, ok := next()
			late.Store(ok)
			return nil
		})
		if err != fail {
			t.Fatalf("err %v, want %v", err, fail)
		}
		if late.Load() {
			t.Fatal("a claim succeeded after a worker failed")
		}
	})
	t.Run("lowest worker", func(t *testing.T) {
		errs := []error{errors.New("worker 0"), errors.New("worker 1"), errors.New("worker 2")}
		var arrived sync.WaitGroup
		arrived.Add(3)
		err := Claim(10, 3, func(w int, next func() (int, bool)) error {
			next()
			arrived.Done()
			arrived.Wait() // all three hold a claim before any fails
			return errs[w]
		})
		if err != errs[0] {
			t.Fatalf("err %v, want %v", err, errs[0])
		}
	})
}
