package tuner

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestKthSmallestMatchesSort pins EstimateW's selection to the value the
// full sort it replaced read: xs[k-1] of the sorted list, for every k, on
// lists with runs of duplicates, all-equal and sorted or reversed lists,
// and a pivot's 1023 distances at the defaults' k of 50.
func TestKthSmallestMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := map[string][]float64{
		"one":       {3},
		"two":       {2, 1},
		"equal":     {4, 4, 4, 4, 4},
		"zeros":     {0, 0, 1, 0, 2, 0},
		"sorted":    {1, 2, 3, 4, 5, 6, 7, 8},
		"reversed":  {8, 7, 6, 5, 4, 3, 2, 1},
		"infinite":  {math.Inf(1), 1, math.Inf(1), 0.5, 2},
		"organ":     {1, 3, 5, 7, 9, 8, 6, 4, 2, 0},
		"many-dups": nil,
		"pivot":     nil,
	}
	dups := make([]float64, 500)
	for i := range dups {
		dups[i] = float64(rng.Intn(7)) / 3
	}
	cases["many-dups"] = dups
	pivot := make([]float64, 1023)
	for i := range pivot {
		pivot[i] = math.Sqrt(rng.ExpFloat64() * 40)
	}
	cases["pivot"] = pivot

	for name, xs := range cases {
		sorted := slices.Clone(xs)
		slices.Sort(sorted)
		for k := 1; k <= len(xs); k++ {
			work := slices.Clone(xs)
			if got, want := kthSmallest(work, k), sorted[k-1]; got != want {
				t.Fatalf("%s: k=%d of %d selected %v, sort reads %v", name, k, len(xs), got, want)
			}
			slices.Sort(work)
			if !slices.Equal(work, sorted) {
				t.Fatalf("%s: k=%d: selection lost or invented values", name, k)
			}
		}
	}
}
