package lshtable

import (
	"fmt"
	"math/rand"
	"testing"
	"unsafe"
)

// forceOverflow routes two buckets through the exact overflow map, the
// state Build leaves behind after a 64-bit compressed-key collision (which
// cannot be produced on demand): every lookup then has to take the exact
// path first.
func forceOverflow(t *testing.T, tab *Table) {
	t.Helper()
	if tab.NumBuckets() < 2 {
		t.Fatal("need two buckets to collide")
	}
	last := tab.NumBuckets() - 1
	tab.overflow = map[string]int{tab.keys[0]: 0, tab.keys[last]: last}
}

// TestLookupBlockMatchesBucketBytes is the block lookup's whole contract:
// for any block of keys it answers exactly what BucketBytes answers key by
// key — on heap-built and mapped tables, with and without an overflow map,
// on an empty table, across the chunk boundary, with most keys absent and
// with keys repeated inside one block.
func TestLookupBlockMatchesBucketBytes(t *testing.T) {
	const keyLen = 5 // buildRandom's "k%04d"
	type variant struct {
		name string
		tab  *Table
	}
	var variants []variant
	for _, overflow := range []bool{false, true} {
		heap := buildRandom(t, 3000, 400, 5)
		if overflow {
			forceOverflow(t, heap)
		}
		mapped, err := ViewMapped(heap.AppendMapped(nil), 3000)
		if err != nil {
			t.Fatal(err)
		}
		if (mapped.overflow != nil) != overflow {
			t.Fatal("overflow map did not survive the mapped round trip")
		}
		variants = append(variants,
			variant{fmt.Sprintf("heap/overflow=%v", overflow), heap},
			variant{fmt.Sprintf("mapped/overflow=%v", overflow), mapped})
	}
	variants = append(variants, variant{"empty", buildRandom(t, 0, 1, 1)})

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			for _, n := range []int{0, 1, 16, lookupChunk, lookupChunk + 1, 128, 241} {
				var keys []byte
				for i := 0; i < n; i++ {
					switch r := rng.Intn(20); {
					case r < 2 && i > 0: // repeat an earlier key of the block
						j := rng.Intn(i)
						keys = append(keys, keys[j*keyLen:(j+1)*keyLen]...)
					case r < 6 && v.tab.NumBuckets() > 0: // present
						keys = append(keys, v.tab.keys[rng.Intn(v.tab.NumBuckets())]...)
					default: // absent, ~75 %
						keys = append(keys, fmt.Sprintf("a%04d", rng.Intn(10000))...)
					}
				}
				prefix := []int32{7, 7}
				got := v.tab.LookupBlock(prefix, keys, keyLen)
				if len(got) != 2+n || got[0] != 7 || got[1] != 7 {
					t.Fatalf("n=%d: result has %d entries after a 2-entry dst", n, len(got))
				}
				hits := 0
				for i, b := range got[2:] {
					key := keys[i*keyLen : (i+1)*keyLen]
					want := v.tab.BucketBytes(key)
					if b == NoBucket {
						if want != nil {
							t.Fatalf("n=%d key %q: block says absent, BucketBytes finds %d ids", n, key, len(want))
						}
						continue
					}
					hits++
					gotKey, ids := v.tab.BucketByOrdinal(int(b))
					if gotKey != string(key) || len(ids) != len(want) || unsafe.SliceData(ids) != unsafe.SliceData(want) {
						t.Fatalf("n=%d key %q: block resolves bucket %d (%q, %d ids), BucketBytes %d ids", n, key, b, gotKey, len(ids), len(want))
					}
				}
				if n >= 128 && v.tab.NumBuckets() > 0 && (hits == 0 || hits == n) {
					t.Fatalf("n=%d: %d hits, the block should mix present and absent keys", n, hits)
				}
			}
		})
	}
}

// BenchmarkBucketLookupBlock times what a multi-probe query does per table
// — resolve 128 probe keys, 76 % of them absent (the measured mix on the
// E8 benchmark workload) — as one block against key by key. The 128 tables
// of ~3000 narrow buckets are cycled, so by the time a table comes round
// again its cuckoo slots and key headers have left the cache, as they have
// between two queries of a real index.
func BenchmarkBucketLookupBlock(b *testing.B) {
	const (
		tables  = 128
		buckets = 3000
		block   = 128
		keyLen  = 32 // an E8 code of M = 8
	)
	rng := rand.New(rand.NewSource(1))
	randKey := func() string {
		k := make([]byte, keyLen)
		rng.Read(k)
		return string(k)
	}
	tabs := make([]*Table, tables)
	blocks := make([][]byte, tables)
	for t := range tabs {
		codes := make([]string, buckets)
		ids := make([]int, buckets)
		for i := range codes {
			codes[i], ids[i] = randKey(), i
		}
		var err error
		if tabs[t], err = Build(codes, ids); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < block; i++ {
			if rng.Intn(100) < 24 {
				blocks[t] = append(blocks[t], codes[rng.Intn(buckets)]...)
			} else {
				blocks[t] = append(blocks[t], randKey()...)
			}
		}
	}
	var sink int
	b.Run("block", func(b *testing.B) {
		var ords []int32
		for i := 0; i < b.N; i++ {
			t := i % tables
			ords = tabs[t].LookupBlock(ords[:0], blocks[t], keyLen)
			for _, o := range ords {
				if o != NoBucket {
					_, ids := tabs[t].BucketByOrdinal(int(o))
					sink += ids[0]
				}
			}
		}
	})
	b.Run("per-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := i % tables
			for p := 0; p < block; p++ {
				if ids := tabs[t].BucketBytes(blocks[t][p*keyLen : (p+1)*keyLen]); ids != nil {
					sink += ids[0]
				}
			}
		}
	})
	_ = sink
}
