package core

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"bilsh/internal/chunk"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// workerCounts are the GOMAXPROCS values the independence tests build
// under: the sequential case, the benchmark box, and more workers than a
// CI runner has cores (the 6 groups below then get a worker each).
var workerCounts = []int{1, 2, 8}

func indexBytes(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildIndependentOfWorkerCount pins the contract that lets Build and
// Compact use every core: the groups are built in whatever order the
// workers reach them, and the index is byte for byte the one a single
// worker builds — after Build, and again after inserts, deletes and a
// Compact on each.
func TestBuildIndependentOfWorkerCount(t *testing.T) {
	data := testData(t, 700, 16, 61)
	extra := testData(t, 40, 16, 62)
	for _, lat := range []LatticeKind{LatticeZM, LatticeE8} {
		for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
			for _, part := range []PartitionerKind{PartitionRPTree, PartitionKMeans, PartitionNone} {
				for _, quant := range []QuantizeKind{QuantizeNone, QuantizeSQ8} {
					opts := Options{
						Partitioner: part, Groups: 6, Lattice: lat, ProbeMode: mode, Probes: 8,
						Quantize: quant, AutoTuneW: true, MemtableThreshold: 16,
						Params: lshfunc.Params{M: 8, L: 4, W: 1},
					}
					t.Run(fmt.Sprintf("%v/%v/%v/%v", lat, mode, part, quant), func(t *testing.T) {
						var wantBuilt, wantCompacted []byte
						for _, procs := range workerCounts {
							built, compacted := buildThenCompact(t, procs, data, extra, opts)
							if wantBuilt == nil {
								wantBuilt, wantCompacted = built, compacted
								continue
							}
							if !bytes.Equal(built, wantBuilt) {
								t.Errorf("Build at GOMAXPROCS %d differs from GOMAXPROCS %d", procs, workerCounts[0])
							}
							if !bytes.Equal(compacted, wantCompacted) {
								t.Errorf("Compact at GOMAXPROCS %d differs from GOMAXPROCS %d", procs, workerCounts[0])
							}
						}
					})
				}
			}
		}
	}
}

// TestBuildLargeTreeIndependentOfWorkerCount is the same contract where
// the level-1 tree's upper splits are large enough to be cut into chunks
// on every core (package chunk), which the 700 rows above never are.
func TestBuildLargeTreeIndependentOfWorkerCount(t *testing.T) {
	data := testData(t, 8*chunk.MinRows+37, 8, 63)
	extra := testData(t, 40, 8, 64)
	opts := Options{
		Partitioner: PartitionRPTree, Groups: 6, Lattice: LatticeE8, ProbeMode: ProbeMulti, Probes: 8,
		AutoTuneW: true, MemtableThreshold: 16, Params: lshfunc.Params{M: 8, L: 4, W: 1},
	}
	var wantBuilt, wantCompacted []byte
	for _, procs := range workerCounts {
		built, compacted := buildThenCompact(t, procs, data, extra, opts)
		if wantBuilt == nil {
			wantBuilt, wantCompacted = built, compacted
			continue
		}
		if !bytes.Equal(built, wantBuilt) {
			t.Errorf("Build at GOMAXPROCS %d differs from GOMAXPROCS %d", procs, workerCounts[0])
		}
		if !bytes.Equal(compacted, wantCompacted) {
			t.Errorf("Compact at GOMAXPROCS %d differs from GOMAXPROCS %d", procs, workerCounts[0])
		}
	}
}

// buildThenCompact builds at GOMAXPROCS procs, serialises, then inserts
// extra's rows, deletes base and inserted rows, compacts and serialises
// again.
func buildThenCompact(t *testing.T, procs int, data, extra *vec.Matrix, opts Options) (built, compacted []byte) {
	t.Helper()
	setProcs(t, procs)
	ix, err := Build(data, opts, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	built = indexBytes(t, ix)
	for i := 0; i < extra.N; i++ {
		if _, err := ix.Insert(extra.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 3; id < data.N+extra.N; id += 37 {
		ix.Delete(id)
	}
	if _, err := ix.Compact(); err != nil {
		t.Fatal(err)
	}
	return built, indexBytes(t, ix)
}

// TestHammingBuildIndependentOfWorkerCount is the same contract for the
// Hamming plane, whose groups go through the same pool and the same flat
// key buffers (it is static, so there is no Compact to repeat it on).
func TestHammingBuildIndependentOfWorkerCount(t *testing.T) {
	data := testData(t, 700, 16, 61)
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti} {
		var want []byte
		for _, procs := range workerCounts {
			setProcs(t, procs)
			ix, err := Build(data, Options{
				Metric: MetricHamming, Bits: 128, Partitioner: PartitionRPTree, Groups: 6,
				ProbeMode: mode, Probes: 6, Params: lshfunc.Params{M: 12, L: 6},
			}, xrand.New(5))
			if err != nil {
				t.Fatal(err)
			}
			got := indexBytes(t, ix)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%v: Build at GOMAXPROCS %d differs from GOMAXPROCS %d", mode, procs, workerCounts[0])
			}
		}
	}
}

// TestBuildDrawsGroupStreamsInIndexOrder pins which random stream a group
// is built from. Splitting a stream advances it, so the streams must be
// drawn in group order whatever order the workers claim the groups in:
// each group of a built index has to equal that group built alone from the
// stream a one-group-after-another Build would have handed it, over the
// rows in input order (the built tables post positions, written here by
// id).
func TestBuildDrawsGroupStreamsInIndexOrder(t *testing.T) {
	const seed = 5
	data := testData(t, 700, 16, 61)
	for _, part := range []PartitionerKind{PartitionRPTree, PartitionNone} {
		setProcs(t, 4)
		ix, err := Build(data, Options{
			Partitioner: part, Groups: 6, Lattice: LatticeE8, AutoTuneW: true,
			Params: lshfunc.Params{M: 8, L: 4, W: 1},
		}, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		rng := xrand.New(seed)
		if part != PartitionNone {
			rng.Split(1) // the partitioner's stream
		}
		grng := rng.Split(2)
		sn := ix.loadSnap()
		for gi, got := range sn.groups {
			want, err := buildGroup(data, nil, got.members, ix.Options(), grng.Split(int64(gi)), new(hashScratch))
			if err != nil {
				t.Fatal(err)
			}
			if got.w != want.w {
				t.Fatalf("%v group %d: W %v, want %v", part, gi, got.w, want.w)
			}
			for tb := range want.tables {
				if !bytes.Equal(got.tables[tb].AppendMappedVia(nil, sn.ext), want.tables[tb].AppendMapped(nil)) {
					t.Fatalf("%v group %d table %d differs from the group built alone", part, gi, tb)
				}
			}
		}
	}
}

// TestForEachGroupClaimsLargestFirst: one worker builds the groups largest
// first, ties in group order, so the longest group never starts last.
// With two workers that both fail, the error of the lower group index is
// the one reported, whichever worker claimed it.
func TestForEachGroupClaimsLargestFirst(t *testing.T) {
	members := [][]int{make([]int, 2), make([]int, 5), make([]int, 2), make([]int, 9), nil}
	setProcs(t, 1)
	var order []int
	if err := forEachGroup(members, func(_ *hashScratch, gi int) error {
		order = append(order, gi)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := []int{3, 1, 0, 2, 4}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("groups built in order %v, want %v", order, want)
	}

	setProcs(t, 2)
	var arrived sync.WaitGroup
	arrived.Add(2)
	errs := []error{errors.New("group 0"), errors.New("group 1")}
	err := forEachGroup(members[:2], func(_ *hashScratch, gi int) error {
		arrived.Done()
		arrived.Wait() // both groups claimed before either fails
		return errs[gi]
	})
	if err != errs[0] {
		t.Fatalf("error %v, want %v", err, errs[0])
	}
}
