// Package rptree implements random projection trees (Freund et al.;
// Dasgupta & Freund) — the first level of Bi-level LSH (Section IV-A).
//
// The tree recursively splits the dataset with two rules:
//
//   - RP-tree max: project onto a random unit direction and split at the
//     median plus a small jitter proportional to the cell diameter — the
//     rule with guaranteed aspect-ratio ("roundness") bounds.
//   - RP-tree mean: like max, but when the cell's diameter is much larger
//     than its average interpoint distance (Δ² > c·Δ_A²), split by distance
//     to the cell mean instead, which adapts to the data's intrinsic
//     dimension. The diameter is approximated with the Egecioglu–Kalantari
//     iteration (package diameter), as prescribed by the paper.
//
// Construction targets a leaf count g rather than a depth: the largest
// leaf is split repeatedly until g leaves exist (or no leaf is splittable),
// so g needs not be a power of two.
package rptree

import (
	"container/heap"
	"fmt"
	"math"
	"slices"

	"bilsh/internal/chunk"
	"bilsh/internal/diameter"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Rule selects the RP-tree split rule. The zero value is RuleMean — the
// rule the paper prefers ("RP-tree mean rule computes better results in
// terms of recall ratio of the overall bi-level scheme") — so default
// configurations follow the paper.
type Rule int

const (
	// RuleMean adds the diameter-conditional distance-to-mean split; the
	// paper observes it gives better recall for the overall bi-level
	// scheme and uses it by default.
	RuleMean Rule = iota
	// RuleMax is the gap-snapped median projection split.
	RuleMax
)

// String implements fmt.Stringer.
func (r Rule) String() string {
	switch r {
	case RuleMax:
		return "max"
	case RuleMean:
		return "mean"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Options configures tree construction.
type Options struct {
	// Rule selects the split rule (default RuleMean, the paper's choice).
	Rule Rule
	// Leaves is the number of partitions g to produce (>= 1).
	Leaves int
	// MinLeafSize stops splitting cells that would produce a side smaller
	// than this (default 1).
	MinLeafSize int
	// DiameterIters is the m of the approximate-diameter iteration
	// (default 40, the value the paper reports as sufficient).
	DiameterIters int
	// MeanSplitC is the c of the Δ²(S) ≤ c·Δ_A²(S) test deciding between
	// projection and distance splits in the mean rule (default 10).
	MeanSplitC float64
	// JitterFrac scales the max-rule median jitter as a fraction of the
	// projected spread (default 0.05).
	JitterFrac float64
}

func (o *Options) fill() {
	if o.Leaves < 1 {
		o.Leaves = 1
	}
	if o.MinLeafSize < 1 {
		o.MinLeafSize = 1
	}
	if o.DiameterIters <= 0 {
		o.DiameterIters = 40
	}
	if o.MeanSplitC <= 0 {
		o.MeanSplitC = 10
	}
	if o.JitterFrac <= 0 {
		o.JitterFrac = 0.05
	}
}

// node is one tree node. Internal nodes carry a split; leaves carry the
// partition id.
type node struct {
	// split by projection: proj != nil, go left when dot(v,proj) <= thresh.
	proj []float32
	// split by distance to mean: mean != nil, go left when
	// ||v-mean|| <= thresh.
	mean   []float32
	thresh float64

	left, right int // children indices, -1 for leaves
	leaf        int // leaf id, -1 for internal nodes
	size        int // points routed here during construction
}

// Tree is a built random projection tree.
type Tree struct {
	nodes  []node
	leaves int
	dim    int
	rule   Rule
}

// Assignment maps each build point to its leaf, with member lists per leaf.
type Assignment struct {
	LeafOf  []int   // point index -> leaf id
	Members [][]int // leaf id -> point indices
}

// Build constructs a tree over data targeting opts.Leaves partitions and
// returns the tree plus the training-point assignment.
func Build(data *vec.Matrix, opts Options, rng *xrand.RNG) (*Tree, *Assignment) {
	opts.fill()
	t := &Tree{dim: data.D, rule: opts.Rule}
	all := make([]int, data.N)
	for i := range all {
		all[i] = i
	}
	root := t.addLeaf(len(all))

	// Largest-first splitting via a max-heap on |idx|.
	pq := &workHeap{}
	heap.Init(pq)
	heap.Push(pq, workItem{node: root, idx: all})

	leafSets := map[int][]int{root: all}
	for t.leaves < opts.Leaves && pq.Len() > 0 {
		it := heap.Pop(pq).(workItem)
		if len(it.idx) < 2*opts.MinLeafSize {
			continue // unsplittable; leave as leaf
		}
		leftIdx, rightIdx, nd, ok := split(data, it.idx, opts, rng)
		if !ok || len(leftIdx) < opts.MinLeafSize || len(rightIdx) < opts.MinLeafSize {
			continue // unsplittable under the size floor; stays a leaf
		}
		// Convert the leaf into an internal node with two fresh leaves.
		li := t.addLeaf(len(leftIdx))
		ri := t.addLeaf(len(rightIdx))
		n := &t.nodes[it.node]
		n.proj, n.mean, n.thresh = nd.proj, nd.mean, nd.thresh
		n.left, n.right = li, ri
		// The converted node is no longer a leaf.
		t.releaseLeaf(n.leaf)
		n.leaf = -1
		delete(leafSets, it.node)
		leafSets[li] = leftIdx
		leafSets[ri] = rightIdx
		heap.Push(pq, workItem{node: li, idx: leftIdx})
		heap.Push(pq, workItem{node: ri, idx: rightIdx})
	}

	// Renumber leaves densely in node order for stable ids.
	asg := &Assignment{LeafOf: make([]int, data.N)}
	leafID := 0
	for i := range t.nodes {
		if t.nodes[i].leaf >= 0 {
			t.nodes[i].leaf = leafID
			idx := leafSets[i]
			asg.Members = append(asg.Members, idx)
			for _, p := range idx {
				asg.LeafOf[p] = leafID
			}
			leafID++
		}
	}
	t.leaves = leafID
	return t, asg
}

// addLeaf appends a leaf node and returns its index.
func (t *Tree) addLeaf(size int) int {
	t.nodes = append(t.nodes, node{left: -1, right: -1, leaf: t.leaves, size: size})
	t.leaves++
	return len(t.nodes) - 1
}

func (t *Tree) releaseLeaf(int) { t.leaves-- }

// NumLeaves returns the number of partitions.
func (t *Tree) NumLeaves() int { return t.leaves }

// Dim returns the expected vector dimensionality.
func (t *Tree) Dim() int { return t.dim }

// Rule returns the split rule the tree was built with.
func (t *Tree) Rule() Rule { return t.rule }

// Leaf routes v to its partition id — the RP-tree(v) component of the
// bi-level hash code H~(v).
func (t *Tree) Leaf(v []float32) int {
	if len(v) != t.dim {
		panic(fmt.Sprintf("rptree: Leaf got dim %d, want %d", len(v), t.dim))
	}
	i := 0
	for {
		n := &t.nodes[i]
		if n.leaf >= 0 {
			return n.leaf
		}
		if n.proj != nil {
			if vec.Dot(v, n.proj) <= n.thresh {
				i = n.left
			} else {
				i = n.right
			}
		} else {
			if vec.Dist(v, n.mean) <= n.thresh {
				i = n.left
			} else {
				i = n.right
			}
		}
	}
}

// LeafProbes routes v to up to m distinct leaves, ordered by routing
// confidence: the first entry is Leaf(v), and the rest are the alternate
// leaves reached by flipping the descent's lowest-margin split decisions
// first (best-first search over the accumulated flip penalty). A point
// near a partition boundary has a tiny margin at the straddled split, so
// its spill set is exactly the neighboring cells the boundary separates —
// the standard mitigation for defeatist tree search, and what the cluster
// router uses to widen a query's shard fan-out (docs/sharding.md).
//
// The penalty of a leaf is the sum of |projection − threshold| (or
// |distance-to-mean − threshold| for distance splits) over the decisions
// flipped to reach it; margins of the two split kinds share the data's
// length scale but are not calibrated against each other, which is
// acceptable for ordering a handful of spill candidates.
func (t *Tree) LeafProbes(v []float32, m int) []int {
	if len(v) != t.dim {
		panic(fmt.Sprintf("rptree: LeafProbes got dim %d, want %d", len(v), t.dim))
	}
	if m < 1 {
		m = 1
	}
	out := make([]int, 0, m)
	// Frontier of (penalty, subtree root) pairs; the pop is a linear min
	// scan — the frontier holds at most one entry per level of the paths
	// walked, and m is small.
	type cand struct {
		pen  float64
		node int
	}
	frontier := []cand{{0, 0}}
	for len(frontier) > 0 && len(out) < m {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if frontier[i].pen < frontier[best].pen {
				best = i
			}
		}
		c := frontier[best]
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		i := c.node
		for {
			n := &t.nodes[i]
			if n.leaf >= 0 {
				out = append(out, n.leaf)
				break
			}
			var d float64
			if n.proj != nil {
				d = vec.Dot(v, n.proj) - n.thresh
			} else {
				d = vec.Dist(v, n.mean) - n.thresh
			}
			next, other := n.left, n.right
			if d > 0 {
				next, other = n.right, n.left
			}
			frontier = append(frontier, cand{c.pen + math.Abs(d), other})
			i = next
		}
	}
	return out
}

// split divides idx into two non-empty sides per the configured rule.
// The split draws from rng in the same order on any number of cores; the
// per-row work between the draws (the centroid, the distances to it, the
// diameter scans, the projections and the partition) is cut into chunks
// on every core when the cell is large (package chunk), with results
// independent of the cut.
func split(data *vec.Matrix, idx []int, opts Options, rng *xrand.RNG) (left, right []int, nd node, ok bool) {
	k := chunk.Count(len(idx))
	if opts.Rule == RuleMean {
		mean := centroid(data, idx, k)
		// Δ_A² estimated as 2 · average squared distance to the mean
		// (exact identity for the average interpoint squared distance).
		// The distances are computed per chunk and summed in row order.
		ids := make([]int32, len(idx))
		dists := make([]float64, len(idx))
		sqDistsTo(dists, ids, data, idx, mean, k)
		var avg2 float64
		for _, d2 := range dists {
			avg2 += d2
		}
		avg2 = 2 * avg2 / float64(len(idx))
		diam := diameter.Approx(data, ids, mean, opts.DiameterIters)
		if diam.Lower*diam.Lower > opts.MeanSplitC*avg2 {
			// Outlier-dominated cell: split by distance to mean.
			for j, d2 := range dists {
				dists[j] = math.Sqrt(d2) // vec.Dist(row, mean)
			}
			th, lok := medianThreshold(dists)
			if lok {
				left, right = partition(idx, dists, th, k)
				return left, right, node{mean: mean, thresh: th}, true
			}
			// Degenerate distances: fall through to projection split.
		}
	}

	// Projection split (the max rule, and the mean rule's common case).
	// A few retries guard against degenerate directions where every point
	// projects identically.
	proj := make([]float64, len(idx))
	for attempt := 0; attempt < 4; attempt++ {
		dir := rng.UnitVec(data.D)
		chunk.Run(len(idx), k, func(_, lo, hi int) {
			for j := lo; j < hi; j++ {
				proj[j] = vec.Dot(data.Row(idx[j]), dir)
			}
		})
		th, lok := medianThreshold(proj)
		if !lok {
			continue
		}
		if opts.Rule == RuleMax {
			// Jittered median split (Dasgupta–Freund): perturb within a
			// fraction of the projected spread, re-clamped to keep both
			// sides non-empty.
			lo, hi := minMax(proj)
			jit := (rng.Float64()*2 - 1) * opts.JitterFrac * (hi - lo)
			th = clampThreshold(proj, th+jit)
		}
		if left, right = partition(idx, proj, th, k); len(left) > 0 && len(right) > 0 {
			return left, right, node{proj: dir, thresh: th}, true
		}
	}
	return nil, nil, node{}, false
}

// sqDistsTo sets ids[j] to idx[j] as an int32 row id and dists[j] to the
// squared distance from that row to v, each of k chunks of rows in one
// vec.SqDistToRows call: bit for bit vec.SqDist(data.Row(idx[j]), v).
func sqDistsTo(dists []float64, ids []int32, data *vec.Matrix, idx []int, v []float32, k int) {
	chunk.Run(len(idx), k, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			ids[j] = int32(idx[j])
		}
		vec.SqDistToRows(dists[lo:hi], data.Data, data.D, ids[lo:hi], v)
	})
}

// centroid is data.Mean(idx): each dimension's sum runs over the rows in
// idx's order. With k > 1 chunks, k workers each sum a range of the
// dimensions, so every sum is still the one a single worker forms.
func centroid(data *vec.Matrix, idx []int, k int) []float32 {
	sums := make([]float64, data.D)
	chunk.Run(data.D, min(k, data.D), func(_, lo, hi int) {
		s := sums[lo:hi]
		for _, p := range idx {
			for j, v := range data.Row(p)[lo:hi] {
				s[j] += float64(v)
			}
		}
	})
	mean := make([]float32, data.D)
	for j, s := range sums {
		mean[j] = float32(s / float64(len(idx)))
	}
	return mean
}

// partition splits idx by xs[j] <= th into exactly sized sides, each in
// idx's order: k chunks count their left rows, then each fills its own
// stretch of both sides.
func partition(idx []int, xs []float64, th float64, k int) (left, right []int) {
	counts := make([]int, k)
	chunk.Run(len(idx), k, func(c, lo, hi int) {
		n := 0
		for _, x := range xs[lo:hi] {
			if x <= th {
				n++
			}
		}
		counts[c] = n
	})
	nl := 0
	for _, c := range counts {
		nl += c
	}
	left, right = make([]int, nl), make([]int, len(idx)-nl)
	chunk.Run(len(idx), k, func(c, lo, hi int) {
		l := 0
		for _, n := range counts[:c] {
			l += n
		}
		r := lo - l
		for j, x := range xs[lo:hi] {
			if x <= th {
				left[l] = idx[lo+j]
				l++
			} else {
				right[r] = idx[lo+j]
				r++
			}
		}
	})
	return left, right
}

// medianThreshold returns a threshold splitting xs into two non-empty,
// roughly balanced halves; ok is false when all values are equal.
//
// Rather than cutting exactly at the median — which slices through any
// cluster that happens to straddle it — the threshold snaps to the largest
// gap between consecutive sorted values inside the middle [25%, 75%]
// quantile band. On multi-cluster data the inter-cluster gaps dominate, so
// splits land between clusters while staying balanced within a factor of
// three; on gap-free data this degenerates to (approximately) the median.
func medianThreshold(xs []float64) (float64, bool) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if s[0] == s[n-1] {
		return 0, false
	}
	lo := n / 4
	hi := n - 1 - n/4
	if hi <= lo {
		lo, hi = 0, n-1
	}
	bestGap := -1.0
	bestI := -1
	for i := lo; i < hi; i++ {
		if gap := s[i+1] - s[i]; gap > bestGap {
			bestGap = gap
			bestI = i
		}
	}
	if bestI < 0 || bestGap <= 0 {
		// Middle band constant: fall back to a full-range split at the
		// first distinct value below the maximum.
		th := s[(n-1)/2]
		if th == s[n-1] {
			for i := n - 1; i > 0; i-- {
				if s[i-1] < th {
					return s[i-1], true
				}
			}
		}
		if th == s[n-1] {
			return 0, false
		}
		return th, true
	}
	// Everything <= s[bestI] goes left.
	return s[bestI], true
}

// clampThreshold forces th into a range that keeps both sides of xs
// non-empty.
func clampThreshold(xs []float64, th float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1) // min and max of xs
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if th < lo {
		th = lo
	}
	// Threshold semantics are "x <= th goes left", so th == hi would empty
	// the right side; nudge below the maximum.
	if th >= hi {
		// Largest value strictly below hi.
		best := lo
		for _, x := range xs {
			if x < hi && x > best {
				best = x
			}
		}
		th = best
	}
	return th
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// workItem and workHeap implement largest-first splitting.
type workItem struct {
	node int
	idx  []int
}

type workHeap []workItem

func (h workHeap) Len() int            { return len(h) }
func (h workHeap) Less(i, j int) bool  { return len(h[i].idx) > len(h[j].idx) }
func (h workHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *workHeap) Push(x interface{}) { *h = append(*h, x.(workItem)) }
func (h *workHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
