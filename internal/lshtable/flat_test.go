package lshtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"bilsh/internal/wire"
)

// refBuckets is the layout a table must have, computed the plain way: sort
// the positions by (key as a string, id) and cut where the key changes.
func refBuckets(codes []string, ids []int) (keys []string, starts, sorted []int) {
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if codes[order[a]] != codes[order[b]] {
			return codes[order[a]] < codes[order[b]]
		}
		return ids[order[a]] < ids[order[b]]
	})
	for out, in := range order {
		if out == 0 || codes[in] != codes[order[out-1]] {
			keys = append(keys, codes[in])
			starts = append(starts, out)
		}
		sorted = append(sorted, ids[in])
	}
	return keys, append(starts, len(ids)), sorted
}

func checkLayout(t *testing.T, name string, tab *Table, codes []string, ids []int) {
	t.Helper()
	keys, starts, sorted := refBuckets(codes, ids)
	if len(tab.keys) != len(keys) || (len(keys) > 0 && !reflect.DeepEqual(tab.keys, keys)) {
		t.Fatalf("%s: keys %q, want %q", name, tab.keys, keys)
	}
	if !reflect.DeepEqual(tab.starts, starts) {
		t.Fatalf("%s: starts %v, want %v", name, tab.starts, starts)
	}
	if len(tab.ids) != len(sorted) || (len(sorted) > 0 && !reflect.DeepEqual(tab.ids, sorted)) {
		t.Fatalf("%s: ids %v, want %v", name, tab.ids, sorted)
	}
}

func wireBytes(tab *Table) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	tab.Encode(w)
	if err := w.Flush(); err != nil {
		panic(err) // a bytes.Buffer does not fail
	}
	return buf.Bytes()
}

// flatten lays equal-length codes back to back, BuildFlat's input.
func flatten(codes []string) (keys []byte, keyLen int) {
	if len(codes) > 0 {
		keyLen = len(codes[0])
	}
	for _, c := range codes {
		keys = append(keys, c...)
	}
	return keys, keyLen
}

// TestBuildKeyOrder feeds Build keys of mixed lengths, which it lays end to
// end before sorting: keys that are a prefix of another key, keys that
// differ only past a long shared prefix or only in trailing zero bytes,
// the empty key, and repeats. The order must be plain string order, ids
// ascending within a bucket.
func TestBuildKeyOrder(t *testing.T) {
	codes := []string{
		"abcdefgh-2", "abcdefgh-1", "abcdefgh", "abcdefg", "abcdefgh-1",
		"ab", "ab\x00", "ab\x00\x00", "a", "", "ab\x00\x00\x00\x00\x00\x00", "ab\x00\x00\x00\x00\x00\x00\x00",
		"\xff\xff\xff\xff\xff\xff\xff\xff\x01", "\xff\xff\xff\xff\xff\xff\xff\xff", "\x00", "ab", "",
	}
	ids := make([]int, len(codes))
	for i := range ids {
		ids[i] = 100 - i // descending, so the id tie-break has work to do
	}
	tab, err := Build(codes, ids)
	if err != nil {
		t.Fatal(err)
	}
	checkLayout(t, "Build", tab, codes, ids)
	for i, c := range codes {
		if got := tab.Bucket(c); len(got) == 0 || !sort.IntsAreSorted(got) {
			t.Fatalf("Bucket(%q) = %v for input %d", c, got, i)
		}
	}
}

// TestBuildFlatMatchesBuild is the flat entry point's contract: for the
// same keys it yields the table Build yields — same keys, starts and ids,
// the layout computed the plain way, the same answers through the overflow
// map, and the same bytes in both serialised forms, which still open.
func TestBuildFlatMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ n, buckets, keyLen int }{
		{0, 1, 0}, {0, 1, 4}, {1, 1, 4}, {7, 1, 0}, {300, 40, 3}, {2000, 311, 8}, {3000, 900, 32},
	} {
		codes := make([]string, tc.n)
		ids := make([]int, tc.n)
		for i := range codes {
			// The bucket number sits at the end of the key, so for keyLen
			// 32 every key shares its first eight bytes with many others.
			key := bytes.Repeat([]byte{'p'}, tc.keyLen)
			for b, at := rng.Intn(tc.buckets), len(key)-1; at >= 0 && b > 0; b, at = b/7, at-1 {
				key[at] = byte(b % 7)
			}
			codes[i] = string(key)
			ids[i] = rng.Intn(1 << 20)
		}
		keys, keyLen := flatten(codes)
		if tc.n == 0 {
			keyLen = tc.keyLen
		}
		flat, err := BuildFlat(keys, keyLen, ids)
		if err != nil {
			t.Fatal(err)
		}
		str, err := Build(codes, ids)
		if err != nil {
			t.Fatal(err)
		}
		checkLayout(t, "BuildFlat", flat, codes, ids)
		checkLayout(t, "Build", str, codes, ids)
		if !bytes.Equal(wireBytes(flat), wireBytes(str)) {
			t.Fatalf("n=%d: wire encodings differ", tc.n)
		}
		img := flat.AppendMapped(nil)
		if !bytes.Equal(img, str.AppendMapped(nil)) {
			t.Fatalf("n=%d: mapped images differ", tc.n)
		}
		view, err := ViewMapped(img, 1<<20)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		if !bytes.Equal(view.AppendMapped(nil), img) {
			t.Fatalf("n=%d: mapped image does not survive a round trip", tc.n)
		}

		// Overwriting the caller's buffers must not reach the table.
		for i := range keys {
			keys[i] = 0xEE
		}
		for i := range ids {
			ids[i] = -1
		}
		if !bytes.Equal(flat.AppendMapped(nil), img) {
			t.Fatalf("n=%d: table changed when the caller's key and id buffers were overwritten", tc.n)
		}

		if flat.NumBuckets() >= 2 {
			forceOverflow(t, flat)
			forceOverflow(t, str)
			if !reflect.DeepEqual(flat.overflow, str.overflow) {
				t.Fatalf("n=%d: overflow maps differ", tc.n)
			}
			for _, c := range codes {
				if !reflect.DeepEqual(flat.Bucket(c), str.Bucket(c)) || !reflect.DeepEqual(flat.BucketBytes([]byte(c)), str.Bucket(c)) {
					t.Fatalf("n=%d: Bucket(%q) differs through the overflow map", tc.n, c)
				}
			}
		}
	}
}

func TestBuildFlatRejectsMisSizedKeys(t *testing.T) {
	for _, tc := range []struct{ keyBytes, keyLen, ids int }{
		{7, 4, 2}, {8, 4, 3}, {0, 4, 1}, {1, 0, 1}, {0, -1, 0},
	} {
		if _, err := BuildFlat(make([]byte, tc.keyBytes), tc.keyLen, make([]int, tc.ids)); err == nil {
			t.Fatalf("%d key bytes, key length %d, %d ids: no error", tc.keyBytes, tc.keyLen, tc.ids)
		}
	}
}

// TestBuildFlatAllocsIndependentOfRows pins what the key arena is for: a
// table's allocations are its arrays and its index, a fixed handful however
// many rows and buckets it holds.
func TestBuildFlatAllocsIndependentOfRows(t *testing.T) {
	allocs := func(n int) float64 {
		rng := rand.New(rand.NewSource(8))
		const keyLen = 16
		keys := make([]byte, n*keyLen)
		ids := make([]int, n)
		for i := range ids {
			keys[i*keyLen] = byte(rng.Intn(256))
			keys[i*keyLen+9] = byte(rng.Intn(8))
			ids[i] = i
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := BuildFlat(keys, keyLen, ids); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(200), allocs(20000)
	if large > small+2 || large > 16 {
		t.Fatalf("BuildFlat allocates %.0f times for 20000 rows, %.0f for 200: want a row-independent handful", large, small)
	}
}

// TestGroupingMatchesSortedLayout is the property behind grouper's hash
// grouping: whatever the keys and the ids, Build and BuildFlat lay a
// table out exactly as refBuckets' plain sort does — ids out of order
// (which the grouping sorts per bucket), repeated ids, one key for every
// row, a distinct key for every row, empty keys, no rows and one row, and
// Build's keys of differing lengths where one key is a prefix of another.
// One Builder, reused from case to case as a build worker reuses it across
// tables, must give each table BuildFlat gives.
func TestGroupingMatchesSortedLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var shared Builder
	randomKeys := func(n, keyLen, distinct int) []string {
		pool := make([]string, distinct)
		for i := range pool {
			key := make([]byte, keyLen)
			rng.Read(key)
			pool[i] = string(key)
		}
		codes := make([]string, n)
		for i := range codes {
			codes[i] = pool[rng.Intn(distinct)]
		}
		return codes
	}
	ascending := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = 3 * i
		}
		return ids
	}
	shuffled := func(n int) []int {
		ids := ascending(n)
		rng.Shuffle(n, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		return ids
	}
	repeated := func(n int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = rng.Intn(n/4 + 1)
		}
		return ids
	}
	distinct := func(n, keyLen int) []string {
		codes := make([]string, n)
		for i := range codes {
			codes[i] = fmt.Sprintf("%0*d", keyLen, (i*7919)%n)
		}
		return codes
	}
	for _, tc := range []struct {
		name  string
		codes []string
		ids   []int
	}{
		{"empty", nil, nil},
		{"one row", []string{"k"}, []int{9}},
		{"ascending ids", randomKeys(3000, 8, 250), ascending(3000)},
		{"unsorted ids", randomKeys(3000, 8, 250), shuffled(3000)},
		{"repeated ids", randomKeys(2000, 4, 60), repeated(2000)},
		{"all-equal keys", randomKeys(1500, 16, 1), shuffled(1500)},
		{"all-distinct keys", distinct(2500, 6), ascending(2500)},
		{"all-distinct keys, unsorted ids", distinct(2500, 6), shuffled(2500)},
		{"key length 0", make([]string, 700), shuffled(700)},
		{"prefix keys", []string{"ab", "a", "abc", "", "a", "ab", "b", "a\x00", "abc", ""}, shuffled(10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			str, err := Build(tc.codes, tc.ids)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, "Build", str, tc.codes, tc.ids)
			if tc.name == "prefix keys" {
				return // not of one length, so not BuildFlat's input
			}
			keys, keyLen := flatten(tc.codes)
			flat, err := BuildFlat(keys, keyLen, tc.ids)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, "BuildFlat", flat, tc.codes, tc.ids)
			reused, err := shared.BuildFlat(keys, keyLen, tc.ids)
			if err != nil {
				t.Fatal(err)
			}
			checkLayout(t, "Builder.BuildFlat", reused, tc.codes, tc.ids)
		})
	}
}
