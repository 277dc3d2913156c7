// Package topk implements the bounded max-heap the short-list search uses
// to keep the k best (closest) candidates seen so far.
//
// The paper (Section V-B) describes short-list search as "inserting the
// candidates sequentially into a max-heap with the maximum size k". This
// package is that data structure: a binary max-heap ordered by distance,
// capped at k entries, with deterministic tie-breaking on the item id so
// experiment runs are reproducible.
package topk

import (
	"fmt"
	"slices"
)

// Item is one k-NN candidate: a dataset id and its distance to the query.
type Item struct {
	ID   int
	Dist float64
}

// less orders items by (Dist, ID) ascending; the heap keeps the *largest*
// at the root so the worst candidate is evicted first.
func less(a, b Item) bool {
	if a.Dist != b.Dist {
		return a.Dist < b.Dist
	}
	return a.ID < b.ID
}

// Heap is a bounded max-heap holding at most K items.
// The zero value is unusable; create with New.
type Heap struct {
	k     int
	items []Item
}

// New returns an empty heap with capacity k (k >= 1).
func New(k int) *Heap {
	if k < 1 {
		panic(fmt.Sprintf("topk: New(%d): k must be >= 1", k))
	}
	return &Heap{k: k, items: make([]Item, 0, k)}
}

// K returns the heap's bound.
func (h *Heap) K() int { return h.k }

// Len returns the number of items currently held.
func (h *Heap) Len() int { return len(h.items) }

// Full reports whether the heap holds k items.
func (h *Heap) Full() bool { return len(h.items) == h.k }

// Worst returns the current k-th best distance, or +Inf semantics via
// ok=false when fewer than k items are held.
func (h *Heap) Worst() (Item, bool) {
	if !h.Full() {
		return Item{}, false
	}
	return h.items[0], true
}

// Push offers an item. It returns true if the item was kept (i.e. the heap
// was not full, or the item beats the current worst).
func (h *Heap) Push(id int, dist float64) bool {
	it := Item{ID: id, Dist: dist}
	if len(h.items) < h.k {
		h.items = append(h.items, it)
		h.up(len(h.items) - 1)
		return true
	}
	if !less(it, h.items[0]) {
		return false
	}
	h.items[0] = it
	h.down(0)
	return true
}

// Accepts reports whether a candidate at dist could be kept if pushed now:
// false only when it is farther than the current k-th. A tie with the k-th
// distance is accepted and left to Push, which keeps the smaller id, so a
// caller that pushes what Accepts admits keeps the same items in any
// arrival order. Useful to skip distance refinement for hopeless
// candidates.
func (h *Heap) Accepts(dist float64) bool {
	return len(h.items) < h.k || dist <= h.items[0].Dist
}

// Reset empties the heap, retaining capacity.
func (h *Heap) Reset() { h.items = h.items[:0] }

// Merge pushes every element of other into h.
func (h *Heap) Merge(other *Heap) {
	for _, it := range other.items {
		h.Push(it.ID, it.Dist)
	}
}

// cmpItem is the three-way form of less for slices.SortFunc.
func cmpItem(a, b Item) int {
	switch {
	case less(a, b):
		return -1
	case less(b, a):
		return 1
	default:
		return 0
	}
}

// Sorted returns the held items ordered by ascending (Dist, ID).
// The heap remains valid afterwards.
func (h *Heap) Sorted() []Item {
	return h.AppendSorted(make([]Item, 0, len(h.items)))
}

// AppendSorted appends the held items to dst in ascending (Dist, ID) order
// and returns the extended slice — the allocation-free form the pooled
// query scratch uses. The heap remains valid afterwards.
func (h *Heap) AppendSorted(dst []Item) []Item {
	base := len(dst)
	dst = append(dst, h.items...)
	slices.SortFunc(dst[base:], cmpItem)
	return dst
}

// IDs returns just the ids of Sorted().
func (h *Heap) IDs() []int {
	s := h.Sorted()
	ids := make([]int, len(s))
	for i, it := range s {
		ids[i] = it.ID
	}
	return ids
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !less(h.items[parent], h.items[i]) {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < n && less(h.items[largest], h.items[l]) {
			largest = l
		}
		if r < n && less(h.items[largest], h.items[r]) {
			largest = r
		}
		if largest == i {
			return
		}
		h.items[i], h.items[largest] = h.items[largest], h.items[i]
		i = largest
	}
}

// SelectK returns the k smallest items of xs by (Dist, ID) — the reference
// answer the heap must agree with, also used directly by the work-queue
// short-list engine after its clustered sort.
func SelectK(xs []Item, k int) []Item {
	cp := make([]Item, len(xs))
	copy(cp, xs)
	slices.SortFunc(cp, cmpItem)
	if len(cp) > k {
		cp = cp[:k]
	}
	return cp
}
