package lshtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// mergeKey is bucket number b as a fixed-length key. Source tables use the
// even numbers 2..2·buckets, so an odd number, 0 or a number past the last
// falls before, between or after the source's keys.
func mergeKey(b int) string { return fmt.Sprintf("m%05d", b) }

// mergeSource builds a table over ids 0..n-1 spread across the given
// number of even-numbered buckets, with the codes it was built from.
func mergeSource(t *testing.T, rng *rand.Rand, n, buckets int) (*Table, []string) {
	t.Helper()
	codes := make([]string, n)
	ids := make([]int, n)
	for i := range codes {
		codes[i], ids[i] = mergeKey(2+2*rng.Intn(buckets)), i
	}
	keys, keyLen := flatten(codes)
	tab, err := BuildFlat(keys, keyLen, ids)
	if err != nil {
		t.Fatal(err)
	}
	return tab, codes
}

// TestMergeMatchesBuildFlat is Merge's contract: over heap, mapped and
// overflow-mapped sources, for every kind of remap and of additions, the
// merged table has BuildFlat's layout over the equivalent pairs and the
// same bytes in both serialised forms.
func TestMergeMatchesBuildFlat(t *testing.T) {
	const n, buckets = 600, 40
	keyLen := len(mergeKey(0))
	rng := rand.New(rand.NewSource(31))
	heap, codes := mergeSource(t, rng, n, buckets)
	mapped, err := ViewMapped(heap.AppendMapped(nil), n)
	if err != nil {
		t.Fatal(err)
	}
	overflow, _ := mergeSource(t, rand.New(rand.NewSource(31)), n, buckets)
	forceOverflow(t, overflow)
	sources := []struct {
		name string
		tab  *Table
	}{{"heap", heap}, {"mapped", mapped}, {"overflow", overflow}}

	// Remaps are increasing: the k-th kept id becomes 2k, which leaves the
	// odd numbers for additions that interleave with the kept ids.
	increasing := func(keep func(id int) bool) []int {
		remap := make([]int, n)
		next := 0
		for id := range remap {
			remap[id] = -1
			if keep(id) {
				remap[id] = next
				next += 2
			}
		}
		return remap
	}
	emptied := map[string]bool{mergeKey(2): true, mergeKey(12): true, mergeKey(2 * buckets): true}
	remaps := []struct {
		name  string
		remap []int
	}{
		{"keep-all", increasing(func(int) bool { return true })},
		{"random", increasing(func(int) bool { return rng.Intn(3) > 0 })},
		{"whole-buckets", increasing(func(id int) bool { return !emptied[codes[id]] })},
		{"drop-all", increasing(func(int) bool { return false })},
	}

	type pairs struct {
		codes []string
		ids   []int
	}
	additions := func(kind string) pairs {
		var p pairs
		addKey := func(b int) {
			p.codes = append(p.codes, mergeKey(b))
			p.ids = append(p.ids, 2*rng.Intn(n)+1) // odd: between kept ids
		}
		switch kind {
		case "existing":
			for i := 0; i < 50; i++ {
				addKey(2 + 2*rng.Intn(buckets))
			}
		case "before":
			addKey(0)
			addKey(1)
			addKey(1)
		case "between":
			for i := 0; i < 30; i++ {
				addKey(3 + 2*rng.Intn(buckets-1))
			}
		case "after":
			addKey(2*buckets + 1)
			addKey(2*buckets + 7)
		case "mixed":
			for i := 0; i < 80; i++ {
				addKey(rng.Intn(2*buckets + 5))
			}
			// Ids past every kept one, and repeats of a key in one bucket.
			p.codes = append(p.codes, mergeKey(4), mergeKey(4))
			p.ids = append(p.ids, 10*n, 10*n+1)
		}
		return p
	}

	for _, src := range sources {
		for _, rm := range remaps {
			for _, kind := range []string{"none", "existing", "before", "between", "after", "mixed"} {
				name := fmt.Sprintf("%s/%s/%s", src.name, rm.name, kind)
				add := additions(kind)
				keys, _ := flatten(add.codes)
				merged, err := src.tab.Merge(rm.remap, keys, keyLen, add.ids)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				// The equivalent pairs: every kept posting under its
				// source key, renumbered, then the additions.
				var want pairs
				for b := 0; b < src.tab.NumBuckets(); b++ {
					key, ids := src.tab.BucketByOrdinal(b)
					for _, id := range ids {
						if r := rm.remap[id]; r >= 0 {
							want.codes = append(want.codes, key)
							want.ids = append(want.ids, r)
						}
					}
				}
				want.codes = append(want.codes, add.codes...)
				want.ids = append(want.ids, add.ids...)
				wantKeys, _ := flatten(want.codes)
				built, err := BuildFlat(wantKeys, keyLen, want.ids)
				if err != nil {
					t.Fatal(err)
				}

				checkLayout(t, name, merged, want.codes, want.ids)
				if !bytes.Equal(wireBytes(merged), wireBytes(built)) {
					t.Fatalf("%s: wire encodings differ", name)
				}
				if !bytes.Equal(merged.AppendMapped(nil), built.AppendMapped(nil)) {
					t.Fatalf("%s: mapped images differ", name)
				}
				// Overwriting the caller's buffers must not reach the table.
				img := merged.AppendMapped(nil)
				for i := range keys {
					keys[i] = 0xEE
				}
				for i := range add.ids {
					add.ids[i] = -7
				}
				if !bytes.Equal(merged.AppendMapped(nil), img) {
					t.Fatalf("%s: table changed when the caller's buffers were overwritten", name)
				}
			}
		}
	}
}

// TestMergeRejectsBadInput: a remap that reorders or repeats ids within a
// bucket, a posting the remap does not cover, and mis-sized keys are
// errors, never a silently unsorted table.
func TestMergeRejectsBadInput(t *testing.T) {
	tab, err := Build([]string{"a", "a", "b", "c"}, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		remap []int
	}{
		{"decreasing", []int{5, 4, 6, 7}},
		{"repeated", []int{3, 3, 6, 7}},
		{"short", []int{0, 1, 2}},
	} {
		if _, err := tab.Merge(tc.remap, nil, 1, nil); err == nil {
			t.Fatalf("%s remap %v: no error", tc.name, tc.remap)
		}
	}
	// Reordering across buckets is no error: each bucket still ascends.
	if _, err := tab.Merge([]int{7, 8, 0, 1}, nil, 1, nil); err != nil {
		t.Fatalf("remap ascending within every bucket: %v", err)
	}
	if _, err := tab.Merge([]int{0, 1, 2, 3}, []byte("abc"), 2, []int{9}); err == nil {
		t.Fatal("mis-sized additions: no error")
	}
}

// TestMergeAllocsIndependentOfPostings pins that Merge, like BuildFlat,
// sizes every array exactly up front: its allocations are a fixed handful
// however many postings it carries over.
func TestMergeAllocsIndependentOfPostings(t *testing.T) {
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(8))
		src, _ := mergeSource(t, rng, n, n/10)
		remap := make([]int, n)
		for id := range remap {
			remap[id] = 2*id - n/2 // drops the first quarter
		}
		var keys []byte
		var ids []int
		for i := 0; i < 20; i++ {
			keys = append(keys, mergeKey(rng.Intn(n/5+2))...)
			ids = append(ids, 2*rng.Intn(n)+1)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := src.Merge(remap, keys, len(mergeKey(0)), ids); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(20000)
	if large > small+2 || large > 16 {
		t.Fatalf("Merge allocates %.0f times carrying 20000 postings, %.0f for 200: want a posting-independent handful", large, small)
	}
}
