// Package lshtable stores one LSH hash table in the layout of the paper's
// Section V-A: a single sorted linear array of item ids, grouped so that
// all items with the same LSH code are contiguous (a bucket), plus an
// index from code key to the bucket's [start, end) interval. The interval
// index is a cuckoo hash table over compressed 64-bit keys, as on the GPU,
// with an exactness fallback for the (astronomically rare) 64-bit key
// collision.
package lshtable

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"unsafe"

	"bilsh/internal/cuckoo"
	"bilsh/internal/vec"
)

// Table is one immutable LSH hash table.
type Table struct {
	keys   []string // unique bucket keys, in sorted bucket order
	starts []int    // len == len(keys)+1; bucket b is ids[starts[b]:starts[b+1]]
	ids    []int    // all item ids grouped by bucket

	index    *cuckoo.Table  // compressed key -> bucket ordinal
	overflow map[string]int // buckets whose compressed key collided
}

// Build groups ids by their code keys. codes[i] is the key of ids[i]. It
// is BuildFlat for callers that hold their keys as strings, of any
// lengths: the keys are laid end to end once and the flat build does the
// rest.
func Build(codes []string, ids []int) (*Table, error) {
	if len(codes) != len(ids) {
		return nil, fmt.Errorf("lshtable: %d codes but %d ids", len(codes), len(ids))
	}
	total := 0
	for _, c := range codes {
		total += len(c)
	}
	src := keySource{blob: make([]byte, 0, total), ends: make([]int, len(codes))}
	for i, c := range codes {
		src.blob = append(src.blob, c...)
		src.ends[i] = len(src.blob)
	}
	return new(Builder).build(src, ids)
}

// BuildFlat is Build over equal-length keys held back to back: the key of
// ids[i] is keys[i*keyLen:(i+1)*keyLen]. It is what the index build calls —
// a group's keys for one table are written into one reused buffer, never
// into a string each — and it yields exactly the table Build yields for
// the same keys. Neither keys nor ids is retained: the table copies the
// ids and each unique key, so the caller may overwrite both buffers as
// soon as BuildFlat returns.
func BuildFlat(keys []byte, keyLen int, ids []int) (*Table, error) {
	return new(Builder).BuildFlat(keys, keyLen, ids)
}

// Builder builds tables one after another — BuildFlat, Merge — and keeps
// the working memory of putting their postings in order (group) from one
// table to the next: it is as long as a table's postings, so a build
// worker that holds one Builder allocates it once, not per table. The zero
// value is ready to use. A Builder is not safe for concurrent use, and the
// tables it returns share nothing with it.
type Builder struct {
	order []int
	work  []int32
	slots []uint64
}

// BuildFlat is the package's BuildFlat, in b's memory.
func (b *Builder) BuildFlat(keys []byte, keyLen int, ids []int) (*Table, error) {
	if keyLen < 0 || len(keys) != len(ids)*keyLen {
		return nil, fmt.Errorf("lshtable: %d key bytes for %d ids of key length %d", len(keys), len(ids), keyLen)
	}
	return b.build(keySource{blob: keys, keyLen: keyLen}, ids)
}

// keySource is the build's view of its input keys: one blob, cut at a
// fixed stride (BuildFlat) or at explicit end offsets (Build).
type keySource struct {
	blob   []byte
	keyLen int   // stride when ends is nil
	ends   []int // key i is blob[ends[i-1]:ends[i]]
}

func (s keySource) at(i int) []byte {
	if s.ends == nil {
		return s.blob[i*s.keyLen : (i+1)*s.keyLen]
	}
	lo := 0
	if i > 0 {
		lo = s.ends[i-1]
	}
	return s.blob[lo:s.ends[i]]
}

func (b *Builder) build(src keySource, ids []int) (*Table, error) {
	order, ends := b.group(src, ids)
	return assemble(func(a *assembler) error {
		lo := 0
		for _, end := range ends {
			openBucket(a, src.at(order[lo]))
			for _, in := range order[lo:end] {
				a.add(ids[in])
			}
			lo = int(end)
		}
		return nil
	})
}

// group returns the positions of src's keys ordered by (key, id), the
// order their pairs take in a table, and where each key's run of positions
// ends; both alias b until its next use. It groups the keys rather than
// sorting them all: LSH keys repeat (a table of the scan and probe
// benchmark workloads holds 10–16 postings per distinct key), so the
// distinct keys are numbered by hashing their full bytes in one pass, only
// they are sorted, and a stable scatter lays each key's positions out in
// input order. That is id order when the ids ascend, as every builder's
// do; a bucket whose ids do not is sorted by id.
func (b *Builder) group(src keySource, ids []int) (order []int, ends []int32) {
	n := len(ids)
	order = resize(&b.order, n)
	// work holds four arrays of up to n entries: group[i] numbers position
	// i's key by first appearance, first[k] is where key k first appears,
	// size[k] counts its positions (and then becomes its offset into
	// order), and byKey lists the keys' numbers in key order.
	work := resize(&b.work, 4*n)
	group, first, size := work[:n], work[n:n:2*n], work[2*n:2*n:3*n]
	// slots is an open-addressing table at most half full: 0 is empty,
	// anything else is a key hash's high 32 bits above its number plus one.
	slots := resize(&b.slots, 1<<bits.Len(uint(2*n)))
	clear(slots)
	mask := uint64(len(slots) - 1)
	for i := range n {
		key := src.at(i)
		h := maphash.Bytes(keySeed, key)
		tag := h &^ math.MaxUint32
		for at := h & mask; ; at = (at + 1) & mask {
			s := slots[at]
			if s == 0 {
				slots[at] = tag | uint64(len(first)+1)
				group[i] = int32(len(first))
				first, size = append(first, int32(i)), append(size, 1)
				break
			}
			if k := int32(s) - 1; s&^math.MaxUint32 == tag && bytes.Equal(src.at(int(first[k])), key) {
				group[i] = k
				size[k]++
				break
			}
		}
	}

	byKey := work[3*n : 3*n+len(first)]
	for k := range byKey {
		byKey[k] = int32(k)
	}
	slices.SortFunc(byKey, func(a, b int32) int {
		return bytes.Compare(src.at(int(first[a])), src.at(int(first[b])))
	})
	var at int32
	for _, k := range byKey {
		at, size[k] = at+size[k], at
	}
	for i, k := range group {
		order[size[k]] = i
		size[k]++
	}
	// size[k] is now where key k's run ends; byKey becomes those ends,
	// bucket by bucket.
	ends = byKey
	for b, k := range byKey {
		ends[b] = size[k]
	}

	if !slices.IsSorted(ids) {
		byID := func(x, y int) int { return cmp.Compare(ids[x], ids[y]) }
		lo := 0
		for _, end := range ends {
			if run := order[lo:end]; !slices.IsSortedFunc(run, byID) {
				slices.SortFunc(run, byID)
			}
			lo = int(end)
		}
	}
	return order, ends
}

// resize sets *buf to n entries, reusing its array when it is long enough;
// the entries' values are unspecified.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// keySeed seeds the hash group numbers keys by. The order it returns does
// not depend on the seed.
var keySeed = maphash.MakeSeed()

// Merge returns the table BuildFlat would build over t's postings with
// each id i replaced by remap[i] (dropped where remap[i] < 0) plus the
// added pairs: the key of ids[j] is keys[j*keyLen:(j+1)*keyLen]. Only the
// additions are put in order (Builder.group). The postings are walked in
// t's bucket order with the additions merged into them, never re-sorted,
// so each bucket's remapped ids must come out strictly ascending: Merge
// returns an error where they do not, and for a posting outside remap. A
// bucket left with no id is dropped. Like BuildFlat it retains neither
// keys nor ids, and nothing of t, which may be a mapped view.
func (t *Table) Merge(remap []int, keys []byte, keyLen int, ids []int) (*Table, error) {
	return new(Builder).Merge(t, remap, keys, keyLen, ids)
}

// Merge is t.Merge, in b's memory.
func (b *Builder) Merge(t *Table, remap []int, keys []byte, keyLen int, ids []int) (*Table, error) {
	if keyLen < 0 || len(keys) != len(ids)*keyLen {
		return nil, fmt.Errorf("lshtable: %d key bytes for %d ids of key length %d", len(keys), len(ids), keyLen)
	}
	add := keySource{blob: keys, keyLen: keyLen}
	order, ends := b.group(add, ids)
	return assemble(func(a *assembler) error {
		// The additions not yet placed are order[lo:], in runs of one key
		// that end at ends[next:].
		lo, next := 0, 0
		// take returns the next run of additions and steps past it.
		take := func() []int {
			run := order[lo:ends[next]]
			lo, next = int(ends[next]), next+1
			return run
		}
		// newBucket places the next run, under a key t does not hold, as a
		// bucket of its own.
		newBucket := func() {
			openBucket(a, add.at(order[lo]))
			for _, in := range take() {
				a.add(ids[in])
			}
		}
		for b, key := range t.keys {
			for next < len(ends) && string(add.at(order[lo])) < key {
				newBucket()
			}
			var adds []int
			if next < len(ends) && string(add.at(order[lo])) == key {
				adds = take()
			}
			if err := a.mergeBucket(key, t.ids[t.starts[b]:t.starts[b+1]], remap, ids, adds); err != nil {
				return err
			}
		}
		for next < len(ends) {
			newBucket()
		}
		return nil
	})
}

// assembler lays a table out bucket by bucket in key order. A walk that
// emits the buckets runs over it twice: while t is nil it only counts, so
// that the second run writes into arrays of exactly the size they end at —
// a table lives as long as its snapshot, so append's slack would stay
// resident with it.
type assembler struct {
	t *Table
	// arena holds the unique keys back to back, each copied once: t.keys
	// are views of it, so a table makes one key allocation, not one per
	// bucket, and keeps no caller's buffer alive.
	arena                    []byte
	buckets, items, keyBytes int
}

// assemble runs walk to size a table, then again to fill it, and indexes
// the result. It is the one writer of the table layout, behind both
// BuildFlat (and Build) and Merge.
func assemble(walk func(a *assembler) error) (*Table, error) {
	var a assembler
	if err := walk(&a); err != nil {
		return nil, err
	}
	a.t = &Table{
		keys:   make([]string, 0, a.buckets),
		starts: make([]int, 0, a.buckets+1),
		ids:    make([]int, 0, a.items),
	}
	a.arena = make([]byte, 0, a.keyBytes)
	if err := walk(&a); err != nil {
		return nil, err
	}
	return a.finish()
}

// openBucket starts a bucket under key; the ids added next are its ids.
func openBucket[K string | []byte](a *assembler, key K) {
	if a.t == nil {
		a.buckets++
		a.keyBytes += len(key)
		return
	}
	at := len(a.arena)
	a.arena = append(a.arena, key...) // within capacity: earlier views stay put
	a.t.keys = append(a.t.keys, unsafe.String(unsafe.SliceData(a.arena[at:]), len(key)))
	a.t.starts = append(a.t.starts, len(a.t.ids))
}

// add appends id to the open bucket.
func (a *assembler) add(id int) {
	if a.t == nil {
		a.items++
		return
	}
	a.t.ids = append(a.t.ids, id)
}

// mergeBucket emits the bucket under key: the postings old, remapped and
// kept, merged by value with the added ids ids[at] for at in adds, which
// ascend. Nothing is emitted when no id remains.
func (a *assembler) mergeBucket(key string, old, remap, ids, adds []int) error {
	opened, prev := len(adds) > 0, -1
	if opened {
		openBucket(a, key)
	}
	for _, id := range old {
		if id < 0 || id >= len(remap) {
			return fmt.Errorf("lshtable: posting %d outside a remap of %d ids", id, len(remap))
		}
		r := remap[id]
		if r < 0 {
			continue
		}
		if r <= prev {
			return fmt.Errorf("lshtable: remap not increasing within bucket %q: %d maps to %d after %d", key, id, r, prev)
		}
		prev = r
		if !opened {
			openBucket(a, key)
			opened = true
		}
		for ; len(adds) > 0 && ids[adds[0]] < r; adds = adds[1:] {
			a.add(ids[adds[0]])
		}
		a.add(r)
	}
	for _, at := range adds {
		a.add(ids[at])
	}
	return nil
}

// finish closes the last bucket and indexes the table.
func (a *assembler) finish() (*Table, error) {
	t := a.t
	t.starts = append(t.starts, len(t.ids))
	if err := t.buildIndex(); err != nil {
		return nil, err
	}
	return t, nil
}

// buildIndex builds the table's derived state over its keys: the cuckoo
// index, and the overflow map for keys whose compressed forms collide.
// Both the assembler and DecodeTable end with it.
func (t *Table) buildIndex() error {
	t.index = cuckoo.New(len(t.keys))
	for b, key := range t.keys {
		ck := compress(key)
		if prev, ok := t.index.Get(ck); ok {
			// 64-bit collision between distinct keys: route both through
			// the exact overflow map.
			if t.overflow == nil {
				t.overflow = make(map[string]int)
			}
			t.overflow[t.keys[prev]] = prev
			t.overflow[key] = b
			continue
		}
		if err := t.index.Put(ck, b); err != nil {
			return fmt.Errorf("lshtable: indexing bucket %d: %w", b, err)
		}
	}
	return nil
}

// compress folds a code key to the 64-bit cuckoo key (the "dim-1 key by
// using another hash function" of Section V-A).
func compress(key string) uint64 { return cuckoo.Compress64String(key) }

// NumBuckets returns the number of distinct codes.
func (t *Table) NumBuckets() int { return len(t.keys) }

// NumItems returns the number of stored ids.
func (t *Table) NumItems() int { return len(t.ids) }

// Bucket returns the item ids whose code key equals key. The returned
// slice aliases the table's storage; callers must not modify it.
func (t *Table) Bucket(key string) []int {
	b, ok := t.bucketOrdinal(key)
	if !ok {
		return nil
	}
	return t.ids[t.starts[b]:t.starts[b+1]]
}

// bucketOrdinal resolves a key to its bucket index.
func (t *Table) bucketOrdinal(key string) (int, bool) {
	if t.overflow != nil {
		if b, ok := t.overflow[key]; ok {
			return b, true
		}
	}
	b, ok := t.index.Get(compress(key))
	if !ok || t.keys[b] != key {
		return 0, false
	}
	return b, true
}

// BucketBytes is Bucket for a byte-slice key: the query hot path encodes
// codes into a reused byte buffer and probes without ever converting to
// string (the conversions below are comparison/lookup temporaries the
// compiler does not materialize on the heap).
func (t *Table) BucketBytes(key []byte) []int {
	b, ok := t.bucketOrdinalBytes(key)
	if !ok {
		return nil
	}
	return t.ids[t.starts[b]:t.starts[b+1]]
}

// bucketOrdinalBytes resolves a byte-slice key to its bucket index without
// allocating.
func (t *Table) bucketOrdinalBytes(key []byte) (int, bool) {
	if t.overflow != nil {
		if b, ok := t.overflow[string(key)]; ok {
			return b, true
		}
	}
	b, ok := t.index.Get(cuckoo.Compress64(key))
	if !ok || t.keys[b] != string(key) {
		return 0, false
	}
	return b, true
}

// NoBucket is LookupBlock's result for a key the table does not hold.
const NoBucket = -1

// lookupChunk is how many keys LookupBlock resolves per round of passes:
// enough independent misses in flight to cover memory latency several
// times over, few enough that every prefetched line (two slots per key,
// up to four lines per hit) is still in L1 when its pass arrives, and a
// fixed size so the per-pass state lives on the stack.
const lookupChunk = 64

// LookupBlock resolves a block of equal-length keys — keys holds them back
// to back, keyLen bytes each — and appends one bucket ordinal per key to
// dst, NoBucket for absent keys; BucketByOrdinal turns an ordinal into the
// bucket's ids. The result is exactly bucketOrdinalBytes key by key.
//
// A multi-probe query knows all of a table's probe keys before it looks up
// the first, and each lookup is a chain of dependent random loads: a cuckoo
// slot or two, then on a hit the bucket's key header and interval, then
// the key bytes and the ids themselves. LookupBlock walks the chain one
// link at a time across the whole chunk, prefetching every key's next link
// before touching anyone's current one, so the misses of a block overlap
// instead of adding up. Each pass collects its hints and issues them in
// one vec.PrefetchBlock call.
func (t *Table) LookupBlock(dst []int32, keys []byte, keyLen int) []int32 {
	if keyLen <= 0 {
		return dst
	}
	if t.overflow != nil {
		// Colliding buckets are only reachable by their exact key.
		for ; len(keys) >= keyLen; keys = keys[keyLen:] {
			b, ok := t.bucketOrdinalBytes(keys[:keyLen])
			if !ok {
				b = NoBucket
			}
			dst = append(dst, int32(b))
		}
		return dst
	}
	var cks [lookupChunk]uint64
	var ords [lookupChunk]int32
	var pf [2 * lookupChunk]unsafe.Pointer
	for len(keys) >= keyLen {
		n := min(len(keys)/keyLen, lookupChunk)
		chunk := keys[:n*keyLen]
		keys = keys[n*keyLen:]
		cuckoo.Compress64Block(cks[:n], chunk, keyLen)
		for i, ck := range cks[:n] {
			pf[2*i], pf[2*i+1] = t.index.SlotAddrs(ck)
		}
		vec.PrefetchBlock(pf[:2*n])
		np := 0
		for i := 0; i < n; i++ {
			b, ok := t.index.Get(cks[i])
			if !ok {
				ords[i] = NoBucket
				continue
			}
			ords[i] = int32(b)
			pf[np], pf[np+1] = unsafe.Pointer(&t.keys[b]), unsafe.Pointer(&t.starts[b])
			np += 2
		}
		vec.PrefetchBlock(pf[:np])
		np = 0
		for _, b := range ords[:n] {
			if b == NoBucket {
				continue
			}
			pf[np] = unsafe.Pointer(unsafe.StringData(t.keys[b]))
			np++
			if at := t.starts[b]; at < len(t.ids) {
				pf[np] = unsafe.Pointer(&t.ids[at])
				np++
			}
		}
		vec.PrefetchBlock(pf[:np])
		for i, b := range ords[:n] {
			if b != NoBucket && t.keys[b] != string(chunk[i*keyLen:(i+1)*keyLen]) {
				b = NoBucket // compressed-key collision with an absent key
			}
			dst = append(dst, b)
		}
	}
	return dst
}

// BucketByOrdinal returns bucket b's key and ids in sorted-key order,
// which is what the hierarchy builders iterate.
func (t *Table) BucketByOrdinal(b int) (string, []int) {
	return t.keys[b], t.ids[t.starts[b]:t.starts[b+1]]
}

// BucketSize returns the population of the bucket holding key (0 when the
// bucket does not exist).
func (t *Table) BucketSize(key string) int {
	b, ok := t.bucketOrdinal(key)
	if !ok {
		return 0
	}
	return t.starts[b+1] - t.starts[b]
}

// Keys returns the sorted unique bucket keys (shared storage; read-only).
func (t *Table) Keys() []string { return t.keys }

// Stats summarizes bucket occupancy for parameter-tuning and reports.
type Stats struct {
	Buckets   int
	Items     int
	MaxBucket int
	// MeanBucket is Items/Buckets.
	MeanBucket float64
	// CollisionMass is Σ size² / Items — the expected bucket size seen by
	// a random stored item, a direct selectivity predictor.
	CollisionMass float64
}

// Summary computes occupancy statistics.
func (t *Table) Summary() Stats {
	s := Stats{Buckets: len(t.keys), Items: len(t.ids)}
	if s.Buckets == 0 {
		return s
	}
	var sq float64
	for b := 0; b < len(t.keys); b++ {
		size := t.starts[b+1] - t.starts[b]
		if size > s.MaxBucket {
			s.MaxBucket = size
		}
		sq += float64(size) * float64(size)
	}
	s.MeanBucket = float64(s.Items) / float64(s.Buckets)
	s.CollisionMass = sq / float64(s.Items)
	return s
}
