package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bilsh/internal/vec"
)

// TestSortCandsMatchesSortedDedup is the property behind the bitset dedup:
// over random histories on ONE pooled scratch — snapshots whose id capacity
// grows and shrinks, batches fed through both addCandidates entry points
// with duplicates, tombstoned ids and overlay ids (>= data.N), and queries
// that gather without ever draining — sortCands must produce exactly
// slices.Sort of the deduplicated live ids, and the collection-order list
// it replaces must already have been duplicate-free.
func TestSortCandsMatchesSortedDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := &scratch{}
	for step := 0; step < 400; step++ {
		baseN := 1 + rng.Intn(6000)
		if step%50 == 0 {
			baseN = 64 * (1 + rng.Intn(90)) // capacity on a word/summary boundary
		}
		memCap := 1 + rng.Intn(300)
		sn := &snapshot{
			data: &vec.Matrix{N: baseN, D: 1},
			mem:  newMemtable(baseN, memCap, 1),
		}
		total := sn.idCapacity()
		sn.dead = newTombstones(total)
		for i := rng.Intn(40); i > 0; i-- {
			if id := rng.Intn(total); !sn.dead.get(id) {
				sn.dead.set(id)
			}
		}

		s.begin(sn)
		var st QueryStats
		want := map[int32]bool{}
		scanned := 0
		for batch := rng.Intn(6); batch > 0; batch-- {
			ids := make([]int, rng.Intn(200))
			for i := range ids {
				switch rng.Intn(4) {
				case 0: // overlay row
					ids[i] = baseN + rng.Intn(memCap)
				case 1: // clustered: forces duplicates and shared bitset words
					ids[i] = rng.Intn(1 + total/16)
				default:
					ids[i] = rng.Intn(total)
				}
				if i > 0 && rng.Intn(8) == 0 {
					ids[i] = ids[i-1]
				}
			}
			ids = append(ids, 0, total-1) // both ends of the id space
			for _, id := range ids {
				if !sn.dead.get(id) {
					want[int32(id)] = true
					scanned++
				}
			}
			if rng.Intn(2) == 0 {
				sn.addCandidates(s, &st, ids)
			} else {
				ids32 := make([]int32, len(ids))
				for i, id := range ids {
					ids32[i] = int32(id)
				}
				sn.addCandidates32(s, &st, ids32)
			}
		}
		if st.Scanned != scanned {
			t.Fatalf("step %d: Scanned = %d, want %d", step, st.Scanned, scanned)
		}
		if len(s.cands) != len(want) {
			t.Fatalf("step %d: collected %d candidates, want %d distinct live ids", step, len(s.cands), len(want))
		}
		if rng.Intn(3) == 0 {
			continue // gather without rank: the next begin must clear the set
		}
		wantSorted := make([]int32, 0, len(want))
		for id := range want {
			wantSorted = append(wantSorted, id)
		}
		slices.Sort(wantSorted)
		s.sortCands()
		if !slices.Equal(s.cands, wantSorted) {
			t.Fatalf("step %d (n=%d cap=%d): sortCands = %v\nwant %v", step, baseN, total, s.cands, wantSorted)
		}
		s.sortCands() // a second drain must not disturb the sorted list
		if !slices.Equal(s.cands, wantSorted) {
			t.Fatalf("step %d: second sortCands changed the list", step)
		}
		for w, word := range s.seen {
			if word != 0 {
				t.Fatalf("step %d: seen[%d] = %#x after drain", step, w, word)
			}
		}
		for w, word := range s.seenSum {
			if word != 0 {
				t.Fatalf("step %d: seenSum[%d] = %#x after drain", step, w, word)
			}
		}
	}
}

// TestGatherWithoutRankLeavesNoStaleBits runs the two real "gather, never
// rank" paths — the median rule's single-probe sizing pass and a plan that
// terminates early and is then abandoned — ahead of normal queries on the
// same pinned scratch: results and candidate lists must equal those of a
// fresh scratch, on a static index and over an overlay with tombstones.
func TestGatherWithoutRankLeavesNoStaleBits(t *testing.T) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := allocIndex(t, mode)
			check := func(stage string) {
				t.Helper()
				sn := ix.loadSnap()
				s := ix.getScratch()
				stopped := 0
				for i := 0; i < qs.N; i++ {
					other := qs.Row((i + 7) % qs.N)
					plain := sn.resolve(Plan{K: 5})
					plain.mode = ProbeSingle
					sn.gatherPlan(other, &plain, s)
					capped := sn.resolve(Plan{K: 5, MaxCandidates: 1, HierMinCandidates: 10})
					if ps := sn.gatherPlan(other, &capped, s); ps.TerminatedEarly {
						stopped++
					}

					rp := sn.resolve(Plan{K: 5})
					got, gotStats := sn.queryPlan(qs.Row(i), &rp, s)
					want, wantStats := sn.queryPlan(qs.Row(i), &rp, &scratch{})
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s query %d after abandoned gathers: %v, fresh scratch: %v", stage, i, got, want)
					}
					if gotStats.Candidates != wantStats.Candidates || gotStats.Scanned != wantStats.Scanned {
						t.Fatalf("%s query %d: %d candidates of %d scanned, fresh scratch %d of %d", stage, i,
							gotStats.Candidates, gotStats.Scanned, wantStats.Candidates, wantStats.Scanned)
					}
				}
				if stopped == 0 {
					t.Fatalf("%s: MaxCandidates=1 never stopped a gather early over %d queries", stage, qs.N)
				}
			}
			check("static")
			for i := 0; i < 40; i++ {
				v := vec.Clone(qs.Row(i % qs.N))
				v[0] += float32(i) * 1e-3
				if _, err := ix.Insert(v); err != nil {
					t.Fatal(err)
				}
			}
			for id := 0; id < 30; id += 3 {
				ix.Delete(id)
			}
			check("overlay")
		})
	}
}
