package core

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bilsh/internal/vec"
)

// unionHistory is one gather's input to the candidate union: a snapshot
// shape (base rows, memtable capacity, tombstones) and the buckets walked,
// each fed as []int (base buckets) or []int32 (overlay buckets, hierarchy
// output), under a plan that counts (count) or does not.
type unionHistory struct {
	baseN, memCap int
	tombSet       bool  // allocate the tombstone set even when dead is empty
	dead          []int // tombstoned ids
	count         bool
	buckets       []unionBucket
}

type unionBucket struct {
	ids  []int
	as32 bool
}

// checkUnion runs h through begin, union and drain on s and holds them to
// a map-based oracle: after every bucket, the running distinct count that
// rp.stop reads on a counting plan; after the drain, Scanned (live entries
// before dedup), the drained list (exactly the sorted distinct live ids)
// and an empty bitset, so a second drain finds nothing.
func checkUnion(t *testing.T, s *scratch, h unionHistory) {
	t.Helper()
	sn := &snapshot{
		data: &vec.Matrix{N: h.baseN, D: 1},
		mem:  newMemtable(h.baseN, h.memCap, 1),
	}
	if h.tombSet || len(h.dead) > 0 {
		sn.dead = newTombstones(sn.idCapacity())
		for _, id := range h.dead {
			if !sn.dead.get(id) {
				sn.dead.set(id)
			}
		}
	}

	s.begin(sn, h.count)
	var st QueryStats
	want := map[int32]bool{}
	scanned := 0
	for bi, b := range h.buckets {
		for _, id := range b.ids {
			if !sn.dead.get(id) {
				want[int32(id)] = true
				scanned++
			}
		}
		if b.as32 {
			ids32 := make([]int32, len(b.ids))
			for i, id := range b.ids {
				ids32[i] = int32(id)
			}
			union(s, &st, ids32)
		} else {
			union(s, &st, b.ids)
		}
		if h.count && s.distinct != len(want) {
			t.Fatalf("bucket %d: running distinct count %d, want %d", bi, s.distinct, len(want))
		}
	}
	if st.Scanned != scanned {
		t.Fatalf("Scanned = %d, want %d", st.Scanned, scanned)
	}
	wantSorted := make([]int32, 0, len(want))
	for id := range want {
		wantSorted = append(wantSorted, id)
	}
	slices.Sort(wantSorted)
	s.drain()
	if !slices.Equal(s.cands, wantSorted) {
		t.Fatalf("(n=%d cap=%d): drained %v\nwant %v", h.baseN, sn.idCapacity(), s.cands, wantSorted)
	}
	for w, word := range s.seen {
		if word != 0 {
			t.Fatalf("seen[%d] = %#x after drain", w, word)
		}
	}
	if s.drain(); len(s.cands) != 0 {
		t.Fatalf("second drain found %d candidates", len(s.cands))
	}
}

// TestCandidateUnionMatchesSortedDedup drives random histories through
// checkUnion on ONE pooled scratch: snapshots whose id capacity grows and
// shrinks, buckets fed through both id widths with duplicates, tombstoned
// ids and overlay ids (>= data.N), with and without a tombstone set, on
// counting and non-counting plans.
func TestCandidateUnionMatchesSortedDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	s := &scratch{}
	for step := 0; step < 400; step++ {
		h := unionHistory{baseN: 1 + rng.Intn(6000), memCap: 1 + rng.Intn(300), count: rng.Intn(2) == 0}
		if step%50 == 0 {
			h.baseN = 64 * (1 + rng.Intn(90)) // capacity on a word boundary
		}
		total := h.baseN + h.memCap
		switch rng.Intn(3) {
		case 0: // no tombstone set: the path every static index takes
		case 1: // a set with nothing in it: a mutable index before any delete
			h.tombSet = true
		default:
			for i := 1 + rng.Intn(40); i > 0; i-- {
				h.dead = append(h.dead, rng.Intn(total))
			}
		}
		for b := rng.Intn(6); b > 0; b-- {
			ids := make([]int, rng.Intn(200))
			for i := range ids {
				switch rng.Intn(4) {
				case 0: // overlay row
					ids[i] = h.baseN + rng.Intn(h.memCap)
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
			h.buckets = append(h.buckets, unionBucket{ids: ids, as32: rng.Intn(2) == 0})
		}
		checkUnion(t, s, h)
	}
}

// FuzzCandidateUnion is checkUnion over fuzzed histories on one scratch
// per process. The first four bytes shape the snapshot and the plan (bit 0
// of byte 0: count; bits 1-2: tombstone set absent, empty or filled; bytes
// 1-2: base rows; byte 3: memtable capacity); every following 3-byte
// record is one posting (id from its two low bytes, taken modulo the id
// capacity), whose first byte also says what comes after it: the same
// bucket, a new []int or []int32 bucket, or — in a filled set — that the
// id is tombstoned instead.
func FuzzCandidateUnion(f *testing.F) {
	f.Add([]byte{0, 0, 10, 4, 0, 1, 0, 1, 1, 0, 2, 9, 0})
	f.Add([]byte{5, 0x13, 0x88, 255, 3, 0, 0, 2, 0xff, 0xff, 1, 0x13, 0x88, 0, 0x13, 0x89})
	f.Add([]byte{3, 0x02, 0x00, 1, 3, 0x01, 0xff, 1, 0x01, 0xff, 0, 0x02, 0x00, 2, 0x02, 0x00})
	s := &scratch{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		h := unionHistory{
			baseN:  1 + int(binary.BigEndian.Uint16(data[1:3]))%5000,
			memCap: 1 + int(data[3]),
			count:  data[0]&1 == 1,
		}
		tombs := data[0] >> 1 & 3
		h.tombSet = tombs == 1
		total := h.baseN + h.memCap
		bucket := unionBucket{}
		for rec := data[4:]; len(rec) >= 3; rec = rec[3:] {
			id := int(binary.BigEndian.Uint16(rec[1:3])) % total
			op := rec[0] & 3
			if op == 3 && tombs >= 2 {
				h.dead = append(h.dead, id)
				continue
			}
			bucket.ids = append(bucket.ids, id)
			if op == 1 || op == 2 {
				h.buckets = append(h.buckets, bucket)
				bucket = unionBucket{as32: op == 2}
			}
		}
		h.buckets = append(h.buckets, bucket)
		checkUnion(t, s, h)
	})
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
