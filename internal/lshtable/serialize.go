package lshtable

import (
	"fmt"
	"slices"

	"bilsh/internal/wire"
)

const tableMagic = "lshtable.Table/1"

// Encode writes the bucket store to w. The cuckoo index is derived state
// and rebuilt on load.
func (t *Table) Encode(w *wire.Writer) { t.EncodeVia(w, nil) }

// EncodeVia is Encode with each id i written as via[i] when via is
// non-nil: the table stored under one numbering of its items is written
// under another (see Renumber).
func (t *Table) EncodeVia(w *wire.Writer, via []int) {
	w.Magic(tableMagic)
	w.Strings(t.keys)
	w.Ints(t.starts)
	w.IntsVia(t.ids, via)
}

// Renumber replaces each id i of t with to[i], in place. Every new id must
// lie in [lo, hi), and each bucket's new ids must ascend as its old ones
// did; Renumber reports the first id that does not and leaves t
// half-renumbered then, so the caller drops it. t must own its ids: a
// mapped view (ViewMapped) is read-only.
func (t *Table) Renumber(to []int32, lo, hi int) error {
	for b := range t.keys {
		prev := lo
		for j := t.starts[b]; j < t.starts[b+1]; j++ {
			id := t.ids[j]
			if id < 0 || id >= len(to) {
				return fmt.Errorf("lshtable: id %d outside a renumbering of %d ids", id, len(to))
			}
			r := int(to[id])
			if r < prev || r >= hi {
				return fmt.Errorf("lshtable: bucket %d: id %d renumbered to %d, after %d, outside [%d,%d) or out of order",
					b, id, r, prev, lo, hi)
			}
			t.ids[j], prev = r, r
		}
	}
	return nil
}

// DecodeTable reads a table written by Encode and adopts what it reads:
// the keys stay in the one arena the reader puts them in, and the bucket
// intervals and ids become the table's arrays as decoded. Only the cuckoo
// index (with the overflow map of colliding keys) is derived, by the code
// every other table constructor indexes with. Every id must lie in
// [0, maxID): a query would index its rows with it.
//
// The result is the table Build makes from the same postings, for any
// input that passes the checks: a bucket whose ids do not ascend is
// sorted, as Build sorts it, and an empty bucket is dropped, as Build
// never makes one.
func DecodeTable(r *wire.Reader, maxID int) (*Table, error) {
	r.ExpectMagic(tableMagic)
	t := &Table{
		keys:   r.Strings(),
		starts: r.Ints(),
		ids:    r.Ints(),
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(t.starts) != len(t.keys)+1 {
		return nil, fmt.Errorf("lshtable: decoded %d starts for %d keys", len(t.starts), len(t.keys))
	}
	if t.starts[0] != 0 || t.starts[len(t.starts)-1] != len(t.ids) {
		return nil, fmt.Errorf("lshtable: decoded bucket intervals do not cover the id array")
	}
	for b := 1; b < len(t.starts); b++ {
		if t.starts[b] < t.starts[b-1] {
			return nil, fmt.Errorf("lshtable: decoded bucket %d has negative size", b-1)
		}
		if b < len(t.keys) && t.keys[b] <= t.keys[b-1] {
			return nil, fmt.Errorf("lshtable: decoded keys not strictly sorted at %d", b)
		}
	}
	for _, id := range t.ids {
		if id < 0 || id >= maxID {
			return nil, fmt.Errorf("lshtable: decoded id %d out of [0,%d)", id, maxID)
		}
	}
	// Compact the buckets in place: a kept bucket only moves down.
	kept := 0
	for b, key := range t.keys {
		lo, hi := t.starts[b], t.starts[b+1]
		if lo == hi {
			continue
		}
		if run := t.ids[lo:hi]; !slices.IsSorted(run) {
			slices.Sort(run)
		}
		t.keys[kept], t.starts[kept] = key, lo
		kept++
	}
	t.keys = t.keys[:kept]
	t.starts = append(t.starts[:kept], len(t.ids))
	if err := t.buildIndex(); err != nil {
		return nil, err
	}
	return t, nil
}
