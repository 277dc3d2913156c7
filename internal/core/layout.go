package core

import (
	"fmt"
	"slices"

	"bilsh/internal/chunk"
	"bilsh/internal/vec"
)

// Rows in leaf order. The paper's groups share nothing (Section IV-A3)
// and its short list is ranked from one linear array (Section V), so a
// heap-resident index stores its base rows leaf by leaf, ascending id
// within a leaf: every candidate of a query comes from its level-1 leaf,
// and the leaf's rows are one contiguous block instead of misses scattered
// over the whole matrix. Build copies the caller's rows into that order,
// ReadIndex permutes what it decoded in place, and Compact writes each
// survivor at its leaf position as it copies it. The snapshot's rowOrder
// translates between a row's position and its external id; mapped and
// paged indexes keep the identity.

// rowOrder is the translation between the positions of the base rows and
// their external ids (see snapshot.rowOrder). The zero value is the
// identity.
type rowOrder struct {
	ext []int   // position -> external id
	pos []int32 // external id -> position
}

// extID returns the external id of position p (any position in the dense
// id space: overlay ids are their own positions).
func (o rowOrder) extID(p int) int {
	if p < len(o.ext) {
		return o.ext[p]
	}
	return p
}

// position returns the position of external id e (any id in the dense id
// space).
func (o rowOrder) position(e int) int {
	if e < len(o.pos) {
		return int(o.pos[e])
	}
	return e
}

// leafLayout lays the rows out leaf by leaf: groupOf[id] is row id's
// group, and group gi's rows, ascending by id, take the positions from
// starts[gi] on. members[gi] lists them by id as a view of the order's
// ext, so a group's members cost nothing beside the translation. The
// order is the identity when the groups already lie in input order.
func leafLayout(groupOf []int32, groups int) (o rowOrder, members [][]int, starts []int) {
	starts = make([]int, groups)
	for _, gi := range groupOf {
		starts[gi]++
	}
	at := 0
	for gi, c := range starts {
		starts[gi], at = at, at+c
	}
	ext := make([]int, len(groupOf))
	pos := make([]int32, len(groupOf))
	next := slices.Clone(starts)
	identity := true
	for id, gi := range groupOf {
		p := next[gi]
		next[gi]++
		ext[p], pos[id] = id, int32(p)
		identity = identity && p == id
	}
	members = make([][]int, groups)
	for gi, end := range next {
		members[gi] = ext[starts[gi]:end:end]
	}
	if identity {
		return rowOrder{}, members, starts
	}
	return rowOrder{ext: ext, pos: pos}, members, starts
}

// groupsOf returns the group of each of n rows from the groups' member
// lists, which must partition [0, n), each list ascending, as every
// builder writes them; lists read from a file are checked here.
func groupsOf(members [][]int, n int) ([]int32, error) {
	groupOf := make([]int32, n)
	for id := range groupOf {
		groupOf[id] = -1
	}
	total := 0
	for gi, ids := range members {
		for i, id := range ids {
			if id < 0 || id >= n || groupOf[id] >= 0 || (i > 0 && id < ids[i-1]) {
				return nil, fmt.Errorf("core: group members do not partition %d rows in ascending order (group %d, row %d)", n, gi, id)
			}
			groupOf[id] = int32(gi)
		}
		total += len(ids)
	}
	if total != n {
		return nil, fmt.Errorf("core: group members hold %d of %d rows", total, n)
	}
	return groupOf, nil
}

// gather returns a copy of data's rows in o's order, copied on every core.
func (o rowOrder) gather(data *vec.Matrix) *vec.Matrix {
	rows := vec.NewMatrix(data.N, data.D)
	chunk.Run(data.N, chunk.Count(data.N), func(_, lo, hi int) {
		for p := lo; p < hi; p++ {
			copy(rows.Row(p), data.Row(o.extID(p)))
		}
	})
	return rows
}

// permuteRows moves the rows of xs (stride elements each) from input order
// into the order ext gives — row ext[p] to row p — in place, following
// each cycle of the permutation with one row of scratch and a bit per
// row, so that a loader never holds two copies of its rows.
func permuteRows[T any](xs []T, stride int, ext []int) {
	row := func(i int) []T { return xs[i*stride : (i+1)*stride] }
	done := make([]uint64, (len(ext)+63)>>6)
	tmp := make([]T, stride)
	for start := range ext {
		if done[start>>6]>>(start&63)&1 != 0 {
			continue
		}
		copy(tmp, row(start))
		for p := start; ; {
			done[p>>6] |= 1 << (p & 63)
			from := ext[p]
			if from == start {
				copy(row(p), tmp)
				break
			}
			copy(row(p), row(from))
			p = from
		}
	}
}

// layOut lays out groups built over external ids in leaf order: each
// group's members become its block's view of the order's ext, and every
// posting is renumbered from id to position — a map that ascends within a
// leaf, so each bucket stays sorted. A posting outside its group's block
// is an error: a query's drain reads only that block. The members must
// partition [0, n) (groupsOf); the rows are the caller's to move.
func layOut(groups []*group, n int) (rowOrder, error) {
	members := make([][]int, len(groups))
	for gi, g := range groups {
		members[gi] = g.members
	}
	groupOf, err := groupsOf(members, n)
	if err != nil {
		return rowOrder{}, err
	}
	o, members, starts := leafLayout(groupOf, len(groups))
	for gi, g := range groups {
		g.members, g.lo = members[gi], starts[gi]
		if o.ext == nil {
			continue
		}
		for t, tab := range g.tables {
			if err := tab.Renumber(o.pos, g.lo, g.lo+len(g.members)); err != nil {
				return rowOrder{}, fmt.Errorf("core: group %d table %d: %w", gi, t, err)
			}
		}
	}
	return o, nil
}

// adoptLeafOrder puts the base of a freshly decoded snapshot, read in
// input order, into leaf order in place: it lays the groups out (layOut)
// and permutes the rows, the SQ8 codes and the sketches.
func (sn *snapshot) adoptLeafOrder() error {
	o, err := layOut(sn.groups, sn.data.N)
	if err != nil || o.ext == nil {
		return err
	}
	permuteRows(sn.data.Data, sn.data.D, o.ext)
	if sn.quant != nil {
		permuteRows(sn.quant.Codes, sn.quant.D, o.ext)
	}
	if sn.sketches != nil {
		permuteRows(sn.sketches.Words, sn.sketches.WordsPerRow(), o.ext)
	}
	sn.rowOrder = o
	return nil
}
