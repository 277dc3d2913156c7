package topk

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPushKeepsBest(t *testing.T) {
	h := New(2)
	if !h.Push(1, 5) || !h.Push(2, 3) {
		t.Fatal("pushes into non-full heap must be kept")
	}
	if h.Push(3, 10) {
		t.Fatal("worse-than-worst push into full heap must be rejected")
	}
	if !h.Push(4, 1) {
		t.Fatal("better push into full heap must be kept")
	}
	got := h.IDs()
	if !reflect.DeepEqual(got, []int{4, 2}) {
		t.Fatalf("IDs = %v, want [4 2]", got)
	}
}

func TestWorstAndAccepts(t *testing.T) {
	h := New(3)
	if _, ok := h.Worst(); ok {
		t.Fatal("Worst on non-full heap should report ok=false")
	}
	if !h.Accepts(1e18) {
		t.Fatal("non-full heap accepts anything")
	}
	h.Push(1, 1)
	h.Push(2, 2)
	h.Push(3, 3)
	w, ok := h.Worst()
	if !ok || w.Dist != 3 {
		t.Fatalf("Worst = %+v ok=%v, want dist 3", w, ok)
	}
	if !h.Accepts(3) {
		t.Fatal("a tie with the k-th distance must be accepted: Push decides it by id")
	}
	if h.Accepts(3.5) {
		t.Fatal("worse distance must not be accepted")
	}
	if !h.Accepts(2.5) {
		t.Fatal("better distance must be accepted")
	}
}

func TestTieBreakOnID(t *testing.T) {
	h := New(2)
	h.Push(5, 1)
	h.Push(3, 1)
	h.Push(9, 1) // same dist, higher id: must lose to id 3 and 5
	got := h.IDs()
	if !reflect.DeepEqual(got, []int{3, 5}) {
		t.Fatalf("IDs = %v, want [3 5]", got)
	}
}

func TestResetAndMerge(t *testing.T) {
	a := New(3)
	a.Push(1, 1)
	a.Reset()
	if a.Len() != 0 {
		t.Fatal("Reset must empty the heap")
	}
	a.Push(1, 1)
	a.Push(2, 9)
	b := New(3)
	b.Push(3, 2)
	b.Push(4, 3)
	a.Merge(b)
	got := a.IDs()
	if !reflect.DeepEqual(got, []int{1, 3, 4}) {
		t.Fatalf("merged IDs = %v, want [1 3 4]", got)
	}
}

func TestNewPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) must panic")
		}
	}()
	New(0)
}

// Property: the heap agrees with sort-and-truncate for random streams.
func TestHeapMatchesSelectK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(20)
		n := rng.Intn(200)
		items := make([]Item, n)
		h := New(k)
		for i := 0; i < n; i++ {
			// Coarse distances force plenty of ties to exercise ID order.
			d := float64(rng.Intn(30))
			items[i] = Item{ID: i, Dist: d}
			h.Push(i, d)
		}
		return reflect.DeepEqual(h.Sorted(), SelectK(items, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a caller that pushes only what Accepts admits — every rank
// loop does — keeps SelectK's answer whatever order the candidates arrive
// in, ties at the k-th distance included. With k = 1, (5, 1.0) then
// (3, 1.0) must end on id 3.
func TestAcceptsGateMatchesSelectKInAnyOrder(t *testing.T) {
	gated := func(k int, order []Item) []Item {
		h := New(k)
		for _, it := range order {
			if h.Accepts(it.Dist) {
				h.Push(it.ID, it.Dist)
			}
		}
		return h.Sorted()
	}
	pair := []Item{{ID: 5, Dist: 1}, {ID: 3, Dist: 1}}
	if got, want := gated(1, pair), SelectK(pair, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("k=1 over %v: %v, want %v", pair, got, want)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(12)
		items := make([]Item, rng.Intn(60))
		for i := range items {
			// Coarse distances: most candidates tie with some other.
			items[i] = Item{ID: rng.Intn(1000), Dist: float64(rng.Intn(6))}
		}
		want := SelectK(items, k)
		for range 8 {
			rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
			if got := gated(k, items); !reflect.DeepEqual(got, want) {
				t.Logf("k=%d order %v: %v, want %v", k, items, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sorted output is non-decreasing in (Dist, ID).
func TestSortedOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := New(1 + rng.Intn(15))
		for i := 0; i < rng.Intn(100); i++ {
			h.Push(rng.Intn(1000), rng.Float64())
		}
		s := h.Sorted()
		for i := 1; i < len(s); i++ {
			if less(s[i], s[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPush(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	dists := make([]float64, 4096)
	for i := range dists {
		dists[i] = rng.Float64()
	}
	h := New(500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Push(i, dists[i%len(dists)])
	}
}
