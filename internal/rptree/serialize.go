package rptree

import (
	"fmt"

	"bilsh/internal/wire"
)

const treeMagic = "rptree.Tree/1"

// Encode writes the routing structure of the tree (what Leaf needs); the
// construction-time member lists are not part of the persistent form.
func (t *Tree) Encode(w *wire.Writer) {
	w.Magic(treeMagic)
	w.Int(t.dim)
	w.Int(int(t.rule))
	w.Int(t.leaves)
	w.Int(len(t.nodes))
	for i := range t.nodes {
		n := &t.nodes[i]
		w.F32s(n.proj) // nil encodes as empty
		w.F32s(n.mean)
		w.F64(n.thresh)
		w.Int(n.left)
		w.Int(n.right)
		w.Int(n.leaf)
		w.Int(n.size)
	}
}

// DecodeTree reads a tree written by Encode.
func DecodeTree(r *wire.Reader) (*Tree, error) {
	r.ExpectMagic(treeMagic)
	t := &Tree{
		dim:    r.Int(),
		rule:   Rule(r.Int()),
		leaves: r.Int(),
	}
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if t.dim <= 0 || t.leaves < 1 || n < 1 || n > r.Limit()/16 {
		return nil, fmt.Errorf("rptree: decoded tree shape dim=%d leaves=%d nodes=%d implausible", t.dim, t.leaves, n)
	}
	t.nodes = make([]node, n)
	for i := range t.nodes {
		nd := &t.nodes[i]
		if proj := r.F32s(); len(proj) > 0 {
			nd.proj = proj
		}
		if mean := r.F32s(); len(mean) > 0 {
			nd.mean = mean
		}
		nd.thresh = r.F64()
		nd.left = r.Int()
		nd.right = r.Int()
		nd.leaf = r.Int()
		nd.size = r.Int()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	// Structural validation: children in range, leaves labeled densely.
	for i := range t.nodes {
		nd := &t.nodes[i]
		if nd.leaf >= 0 {
			if nd.leaf >= t.leaves {
				return nil, fmt.Errorf("rptree: node %d has leaf id %d of %d", i, nd.leaf, t.leaves)
			}
			continue
		}
		if nd.left <= i || nd.left >= n || nd.right <= i || nd.right >= n {
			return nil, fmt.Errorf("rptree: node %d has out-of-order children (%d,%d)", i, nd.left, nd.right)
		}
		if nd.proj == nil && nd.mean == nil {
			return nil, fmt.Errorf("rptree: internal node %d carries no split", i)
		}
		if (nd.proj != nil && len(nd.proj) != t.dim) || (nd.mean != nil && len(nd.mean) != t.dim) {
			return nil, fmt.Errorf("rptree: node %d split has dim %d/%d, tree %d", i, len(nd.proj), len(nd.mean), t.dim)
		}
	}
	return t, nil
}
