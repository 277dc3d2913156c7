package cuckoo

import (
	"testing"
	"testing/quick"

	"bilsh/internal/xrand"
)

func TestPutGet(t *testing.T) {
	c := New(4)
	if err := c.Put(10, 100); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Get(10); !ok || v != 100 {
		t.Fatalf("Get(10) = %d,%v", v, ok)
	}
	if _, ok := c.Get(11); ok {
		t.Fatal("absent key reported present")
	}
}

func TestOverwrite(t *testing.T) {
	c := New(4)
	c.Put(1, 1)
	c.Put(1, 2)
	if v, _ := c.Get(1); v != 2 {
		t.Fatalf("overwrite: got %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d after overwrite", c.Len())
	}
}

func TestReservedKeyRejected(t *testing.T) {
	c := New(4)
	if err := c.Put(^uint64(0), 1); err == nil {
		t.Fatal("reserved key must be rejected")
	}
	if _, ok := c.Get(^uint64(0)); ok {
		t.Fatal("reserved key must never be present")
	}
}

func TestGrowthUnderLoad(t *testing.T) {
	c := New(2) // deliberately undersized
	const n = 10000
	for i := uint64(0); i < n; i++ {
		if err := c.Put(i*2654435761+1, int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != n {
		t.Fatalf("Len = %d, want %d", c.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := c.Get(i*2654435761 + 1); !ok || v != int(i) {
			t.Fatalf("key %d: got %d,%v", i, v, ok)
		}
	}
}

// Property: the table behaves exactly like a map under random workloads.
func TestMapEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		c := New(8)
		ref := make(map[uint64]int)
		for op := 0; op < 500; op++ {
			k := uint64(rng.Intn(200))
			if k == ^uint64(0) {
				continue
			}
			if rng.Float64() < 0.7 {
				v := rng.Intn(1000)
				if err := c.Put(k, v); err != nil {
					return false
				}
				ref[k] = v
			} else {
				got, ok := c.Get(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					return false
				}
			}
		}
		if c.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			if got, ok := c.Get(k); !ok || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAdversarialEqualHashes(t *testing.T) {
	// Sequential keys stress eviction chains; the table must stay correct
	// through rehashes.
	c := New(16)
	for i := uint64(0); i < 3000; i++ {
		c.Put(i, int(i)*3)
	}
	for i := uint64(0); i < 3000; i++ {
		if v, ok := c.Get(i); !ok || v != int(i)*3 {
			t.Fatalf("key %d lost after rehashes (%d rebuilds)", i, c.Rehashes())
		}
	}
}

func BenchmarkPut(b *testing.B) {
	c := New(b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(uint64(i)*2654435761+7, i)
	}
}

func BenchmarkGet(b *testing.B) {
	c := New(100000)
	for i := 0; i < 100000; i++ {
		c.Put(uint64(i)*2654435761+7, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(uint64(i%100000)*2654435761 + 7)
	}
}

// TestCompress64BlockMatchesCompress64 holds the interleaved fold to
// Compress64 key by key, across the four-chain boundary (block sizes
// 0…9 and either side of a lookup chunk) and for key lengths down to the
// empty key.
func TestCompress64BlockMatchesCompress64(t *testing.T) {
	rng := xrand.New(11)
	for _, keyLen := range []int{0, 1, 3, 4, 8, 32, 33, 64} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65} {
			keys := make([]byte, n*keyLen)
			for i := range keys {
				keys[i] = byte(rng.Intn(256))
			}
			dst := make([]uint64, n+1)
			dst[n] = 42 // past the block: must be left alone
			Compress64Block(dst[:n], keys, keyLen)
			for i := 0; i < n; i++ {
				if want := Compress64(keys[i*keyLen : (i+1)*keyLen]); dst[i] != want {
					t.Fatalf("keyLen=%d n=%d: key %d folds to %#x, want %#x", keyLen, n, i, dst[i], want)
				}
			}
			if dst[n] != 42 {
				t.Fatalf("keyLen=%d n=%d: wrote past the block", keyLen, n)
			}
		}
	}
	if got := notEmpty(empty); got != empty-1 || notEmpty(7) != 7 {
		t.Fatalf("sentinel remap: notEmpty(empty) = %#x", got)
	}
}

// BenchmarkCompress64Block folds one lookup chunk of 64 E8 M = 8 keys (32
// bytes each) as a block and key by key.
func BenchmarkCompress64Block(b *testing.B) {
	const n, keyLen = 64, 32
	rng := xrand.New(3)
	keys := make([]byte, n*keyLen)
	for i := range keys {
		keys[i] = byte(rng.Intn(256))
	}
	dst := make([]uint64, n)
	b.Run("block", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Compress64Block(dst, keys, keyLen)
		}
	})
	b.Run("per-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range dst {
				dst[k] = Compress64(keys[k*keyLen : (k+1)*keyLen])
			}
		}
	})
}
