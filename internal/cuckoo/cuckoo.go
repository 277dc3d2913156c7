// Package cuckoo implements the cuckoo hash table the paper's GPU pipeline
// uses to index LSH buckets (Section V-A, after Alcantara et al.): each key
// is a compressed LSH code, each value the bucket's interval in the sorted
// linear array of items.
//
// The table uses two hash choices with an eviction chain plus a small
// stash; insertion failures trigger a rehash with fresh hash seeds (and
// growth when load is high), mirroring the GPU construction's
// retry-with-new-functions strategy. Lookups probe at most two slots and
// the stash, which is the property that makes the structure attractive on
// parallel hardware.
package cuckoo

import (
	"fmt"
	"unsafe"
)

const (
	empty        = ^uint64(0) // sentinel key for empty slots
	maxKicks     = 64         // eviction chain length before rehash
	stashLimit   = 8          // entries tolerated in the stash
	maxRebuilds  = 32         // rehash attempts before giving up growing
	minTableSize = 16
)

// Compress64 folds an LSH code key's byte image to the 64-bit cuckoo key
// (the "dim-1 key by using another hash function" of Section V-A). It is
// FNV-1a, inlined so the query hot path hashes straight from a reused byte
// buffer without constructing a hash.Hash64. The reserved sentinel value
// is remapped so the result is always a legal Table key.
func Compress64(key []byte) uint64 {
	v := uint64(fnvOffset64)
	for _, b := range key {
		v ^= uint64(b)
		v *= fnvPrime64
	}
	return notEmpty(v)
}

// Compress64Block sets dst[i] to Compress64 of the i-th keyLen-byte key
// of keys — a block of probe keys resolved together. One key's fold is a
// chain of dependent multiplies, one per byte, so four keys are folded at
// once on independent chains (fold4) and the remainder one at a time.
func Compress64Block(dst []uint64, keys []byte, keyLen int) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		v0, v1, v2, v3 := fold4(keys[i*keyLen:(i+4)*keyLen], keyLen)
		d := dst[i : i+4 : i+4]
		d[0], d[1], d[2], d[3] = notEmpty(v0), notEmpty(v1), notEmpty(v2), notEmpty(v3)
	}
	for ; i < len(dst); i++ {
		dst[i] = Compress64(keys[i*keyLen : (i+1)*keyLen])
	}
}

// fold4 is the FNV-1a fold of Compress64, before the sentinel remap, of
// the four consecutive keyLen-byte keys in blk, each over its own bytes in
// order. It is a function of its own so that the four accumulators stay
// in registers: inlined into its caller's loop they are spilled to the
// stack on every byte.
//
//go:noinline
func fold4(blk []byte, keyLen int) (v0, v1, v2, v3 uint64) {
	v0, v1, v2, v3 = fnvOffset64, fnvOffset64, fnvOffset64, fnvOffset64
	k0 := blk[:keyLen]
	k1 := blk[keyLen : 2*keyLen][:len(k0)]
	k2 := blk[2*keyLen : 3*keyLen][:len(k0)]
	k3 := blk[3*keyLen : 4*keyLen][:len(k0)]
	for j, b := range k0 {
		v0 = (v0 ^ uint64(b)) * fnvPrime64
		v1 = (v1 ^ uint64(k1[j])) * fnvPrime64
		v2 = (v2 ^ uint64(k2[j])) * fnvPrime64
		v3 = (v3 ^ uint64(k3[j])) * fnvPrime64
	}
	return v0, v1, v2, v3
}

// notEmpty remaps the empty-slot sentinel, so that a folded key is always
// a legal Table key.
func notEmpty(v uint64) uint64 {
	if v == empty {
		v--
	}
	return v
}

// Compress64String is Compress64 over a string key (build paths index
// string-keyed buckets; both forms produce identical values for the same
// bytes).
func Compress64String(key string) uint64 {
	v := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		v ^= uint64(key[i])
		v *= fnvPrime64
	}
	return notEmpty(v)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Table maps uint64 keys to int values. The zero value is not usable;
// create with New. Key ^uint64(0) is reserved.
type Table struct {
	slots  []entry
	stash  []entry
	n      int
	seed1  uint64
	seed2  uint64
	rounds int // total rehash count, exposed for tests/diagnostics
}

type entry struct {
	key uint64
	val int
}

// New returns a table pre-sized for capacity entries.
func New(capacity int) *Table {
	size := minTableSize
	for size < 2*capacity {
		size *= 2
	}
	t := &Table{seed1: 0x9e3779b97f4a7c15, seed2: 0xc2b2ae3d27d4eb4f}
	t.slots = make([]entry, size)
	for i := range t.slots {
		t.slots[i].key = empty
	}
	return t
}

// Len returns the number of stored keys.
func (t *Table) Len() int { return t.n }

// Rehashes returns how many times the table rebuilt itself.
func (t *Table) Rehashes() int { return t.rounds }

// hash mixes k with seed (xorshift-multiply finalizer).
func hash(k, seed uint64) uint64 {
	x := k ^ seed
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func (t *Table) slot1(k uint64) int { return int(hash(k, t.seed1) & uint64(len(t.slots)-1)) }
func (t *Table) slot2(k uint64) int { return int(hash(k, t.seed2) & uint64(len(t.slots)-1)) }

// Get returns the value for key, with ok=false for absent keys.
func (t *Table) Get(key uint64) (int, bool) {
	if key == empty {
		return 0, false
	}
	if e := t.slots[t.slot1(key)]; e.key == key {
		return e.val, true
	}
	if e := t.slots[t.slot2(key)]; e.key == key {
		return e.val, true
	}
	for _, e := range t.stash {
		if e.key == key {
			return e.val, true
		}
	}
	return 0, false
}

// SlotAddrs returns the addresses of the two slots key can occupy. A
// caller that knows a block of keys up front prefetches them for every key
// (vec.PrefetchBlock) before the first Get, so the block's slot misses
// overlap instead of queueing behind one another — the batched probe the
// paper's GPU table is built for (Section V-A), on a CPU.
func (t *Table) SlotAddrs(key uint64) (unsafe.Pointer, unsafe.Pointer) {
	return unsafe.Pointer(&t.slots[t.slot1(key)]), unsafe.Pointer(&t.slots[t.slot2(key)])
}

// Put inserts or overwrites key. It returns an error only if key is the
// reserved sentinel; capacity pressure is handled internally by rehashing
// and growing.
func (t *Table) Put(key uint64, val int) error {
	if key == empty {
		return fmt.Errorf("cuckoo: key %#x is reserved", key)
	}
	// Overwrite in place if present.
	if i := t.slot1(key); t.slots[i].key == key {
		t.slots[i].val = val
		return nil
	}
	if i := t.slot2(key); t.slots[i].key == key {
		t.slots[i].val = val
		return nil
	}
	for i := range t.stash {
		if t.stash[i].key == key {
			t.stash[i].val = val
			return nil
		}
	}
	t.insertNew(entry{key, val})
	return nil
}

// insertNew places a key known to be absent, evicting as needed.
func (t *Table) insertNew(e entry) {
	for rebuild := 0; ; rebuild++ {
		cur := e
		pos := t.slot1(cur.key)
		for kick := 0; kick < maxKicks; kick++ {
			if t.slots[pos].key == empty {
				t.slots[pos] = cur
				t.n++
				return
			}
			t.slots[pos], cur = cur, t.slots[pos]
			// Bounce the evicted entry to its other slot.
			if alt := t.slot1(cur.key); alt != pos {
				pos = alt
			} else {
				pos = t.slot2(cur.key)
			}
		}
		// Eviction chain too long: stash, or rehash.
		if len(t.stash) < stashLimit {
			t.stash = append(t.stash, cur)
			t.n++
			return
		}
		if rebuild >= maxRebuilds {
			// Pathological input; grow unconditionally and keep going.
			t.grow(cur)
			t.n++
			return
		}
		e = t.rehash(cur, t.loadFactor() > 0.45)
	}
}

func (t *Table) loadFactor() float64 {
	return float64(t.n) / float64(len(t.slots))
}

// rehash rebuilds the table with fresh seeds (optionally doubled size) and
// returns the pending entry still to insert.
func (t *Table) rehash(pending entry, grow bool) entry {
	old := t.slots
	oldStash := t.stash
	size := len(t.slots)
	if grow {
		size *= 2
	}
	t.rounds++
	t.seed1 = hash(t.seed1, uint64(t.rounds)*0x9e3779b97f4a7c15+1)
	t.seed2 = hash(t.seed2, uint64(t.rounds)*0xc2b2ae3d27d4eb4f+3)
	t.slots = make([]entry, size)
	for i := range t.slots {
		t.slots[i].key = empty
	}
	t.stash = nil
	t.n = 0
	for _, e := range old {
		if e.key != empty {
			t.insertNew(e)
		}
	}
	for _, e := range oldStash {
		t.insertNew(e)
	}
	return pending
}

// grow is the last-resort path: double and reinsert, then place pending in
// the stash directly.
func (t *Table) grow(pending entry) {
	t.rehash(entry{key: empty}, true)
	t.stash = append(t.stash, pending)
}
