package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// inputOrder returns an index that serves the same snapshot as ix with its
// rows in input order (the identity row order): rows, SQ8 codes and
// sketches un-permuted, every posting and tombstone renumbered to its
// external id, hierarchies rebuilt over the renumbered tables, and the
// overlay shared. It is the reference the leaf-ordered index must match.
func inputOrder(t *testing.T, ix *Index) *Index {
	t.Helper()
	sn := ix.loadSnap()
	if sn.ext == nil {
		t.Fatal("fixture: the index is already in input order")
	}
	n := sn.data.N
	order := make([]int32, n) // external id -> position
	for e := range order {
		order[e] = int32(sn.position(e))
	}
	ref := sn.clone()
	ref.rowOrder = rowOrder{}
	ref.data = vec.NewMatrix(n, sn.data.D)
	for e := 0; e < n; e++ {
		copy(ref.data.Row(e), sn.data.Row(int(order[e])))
	}
	if sn.quant != nil {
		q := *sn.quant
		q.Codes = make([]uint8, len(sn.quant.Codes))
		for e := 0; e < n; e++ {
			copy(q.Codes[e*q.D:(e+1)*q.D], sn.quant.Codes[int(order[e])*q.D:])
		}
		ref.quant = &q
	}
	if sn.sketches != nil {
		b := vec.NewBinaryMatrix(n, sn.sketches.Bits)
		for e := 0; e < n; e++ {
			copy(b.Row(e), sn.sketches.Row(int(order[e])))
		}
		ref.sketches = b
	}
	ref.groups = make([]*group, len(sn.groups))
	for gi, g := range sn.groups {
		rg := &group{members: slices.Clone(g.members), fam: g.fam, lat: g.lat, w: g.w, bsamp: g.bsamp}
		for _, tab := range g.tables {
			var buf bytes.Buffer
			w := wire.NewWriter(&buf)
			tab.EncodeVia(w, sn.ext)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			rt, err := lshtable.DecodeTable(wire.NewReader(&buf), n)
			if err != nil {
				t.Fatal(err)
			}
			rg.tables = append(rg.tables, rt)
		}
		if err := buildGroupHierarchies(rg, ix.opts); err != nil {
			t.Fatal(err)
		}
		ref.groups[gi] = rg
	}
	if sn.dead != nil {
		ref.dead = newTombstones(sn.idCapacity())
		for p := 0; p < sn.total(); p++ {
			if sn.isDeleted(p) {
				ref.dead.set(sn.extID(p))
			}
		}
	}
	out := &Index{opts: ix.opts}
	out.snap.Store(ref)
	return out
}

// sameAnswers holds got to want on every read the API offers, byte for
// byte: Query, QueryPlan under plans that probe, cap and stop early,
// QueryBatch (the hierarchy median rule) and QueryBatchParallel,
// CandidateList, ExactKNN, Vector over the whole id space, Len and, on a
// clean snapshot, WriteTo.
func sameAnswers(t *testing.T, stage string, got, want *Index, qs *vec.Matrix) {
	t.Helper()
	plans := []Plan{
		{K: 7},
		{K: 3, Probes: 4},
		{K: 5, Tables: 2},
		{K: 7, MaxCandidates: 20},
		{K: 7, StableProbes: 2},
		{K: 7, RerankFactor: 1},
	}
	for qi := 0; qi < qs.N; qi++ {
		q := qs.Row(qi)
		r1, s1 := got.Query(q, 6)
		r2, s2 := want.Query(q, 6)
		s1.Timings, s2.Timings = StageTimings{}, StageTimings{}
		if !reflect.DeepEqual(r1, r2) || s1 != s2 {
			t.Fatalf("%s: Query %d: %v %+v, input order %v %+v", stage, qi, r1, s1, r2, s2)
		}
		for _, p := range plans {
			r1, p1 := got.QueryPlan(q, p)
			r2, p2 := want.QueryPlan(q, p)
			p1.Timings, p2.Timings = StageTimings{}, StageTimings{}
			if !reflect.DeepEqual(r1, r2) || p1 != p2 {
				t.Fatalf("%s: QueryPlan %d %+v: %v %+v, input order %v %+v", stage, qi, p, r1, p1, r2, p2)
			}
		}
		c1, cs1 := got.CandidateList(q)
		c2, cs2 := want.CandidateList(q)
		cs1.Timings, cs2.Timings = StageTimings{}, StageTimings{}
		if !slices.Equal(c1, c2) || cs1 != cs2 {
			t.Fatalf("%s: CandidateList %d: %v, input order %v", stage, qi, c1, c2)
		}
		if e1, e2 := got.ExactKNN(q, 9), want.ExactKNN(q, 9); !reflect.DeepEqual(e1, e2) {
			t.Fatalf("%s: ExactKNN %d: %v, input order %v", stage, qi, e1, e2)
		}
	}
	b1, bs1 := got.QueryBatch(qs, 5)
	b2, bs2 := want.QueryBatch(qs, 5)
	p1, ps1 := got.QueryBatchParallel(qs, 5, 3)
	for qi := range b2 {
		bs1[qi].Timings, bs2[qi].Timings, ps1[qi].Timings = StageTimings{}, StageTimings{}, StageTimings{}
		if !reflect.DeepEqual(b1[qi], b2[qi]) || bs1[qi] != bs2[qi] ||
			!reflect.DeepEqual(p1[qi], b2[qi]) || ps1[qi] != bs2[qi] {
			t.Fatalf("%s: batch query %d: %v / parallel %v, input order %v", stage, qi, b1[qi], p1[qi], b2[qi])
		}
	}
	total := got.loadSnap().total()
	for id := -1; id <= total; id++ {
		if v1, v2 := got.Vector(id), want.Vector(id); !slices.Equal(v1, v2) {
			t.Fatalf("%s: Vector(%d) = %v, input order %v", stage, id, v1, v2)
		}
	}
	if got.Len() != want.Len() {
		t.Fatalf("%s: Len %d, input order %d", stage, got.Len(), want.Len())
	}
	if got.loadSnap().requireClean() == nil {
		var w1, w2 bytes.Buffer
		if _, err := got.WriteTo(&w1); err != nil {
			t.Fatal(err)
		}
		if _, err := want.WriteTo(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("%s: WriteTo differs from the input-order index's", stage)
		}
	}
}

// checkModel holds ix to what its ids must mean whatever order it stores
// its rows in: the base rows of a fresh build are data's, by id; the ids
// ExactKNN ranks are exactly the live ones; and ref, ix in input order,
// carries the SQ8 codes and sketches its rows give in id order (which
// decides between −0 and +0 for an SQ8 minimum).
func checkModel(t *testing.T, stage string, ix, ref *Index, data *vec.Matrix, dead map[int]bool, q []float32) {
	t.Helper()
	if data != nil {
		for id := 0; id < data.N; id++ {
			if !slices.Equal(ix.Vector(id), data.Row(id)) {
				t.Fatalf("%s: Vector(%d) is not row %d of the input", stage, id, id)
			}
		}
	}
	total := ix.loadSnap().total()
	var live []int
	for id := 0; id < total; id++ {
		if !dead[id] {
			live = append(live, id)
		}
	}
	ranked := ix.ExactKNN(q, total).IDs
	slices.Sort(ranked)
	if !slices.Equal(ranked, live) {
		t.Fatalf("%s: ExactKNN ranks ids %v, live ids are %v", stage, ranked, live)
	}
	sn := ref.loadSnap()
	if sn.quant != nil {
		want := vec.QuantizeSQ8(sn.data)
		if !slices.Equal(sn.quant.Codes, want.Codes) || !slices.Equal(f32bits(sn.quant.Min), f32bits(want.Min)) ||
			!slices.Equal(f32bits(sn.quant.Scale), f32bits(want.Scale)) {
			t.Fatalf("%s: SQ8 codes differ from those of the rows in id order", stage)
		}
	}
	if sn.sketches != nil && !slices.Equal(sn.sketches.Words, sn.sketcher.SketchAll(sn.data).Words) {
		t.Fatalf("%s: sketches differ from those of the rows in id order", stage)
	}
}

func f32bits(xs []float32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = math.Float32bits(x)
	}
	return out
}

// dupData is n rows of which every third is a copy of an earlier row in
// another part of the id space, on a coarse grid so that distinct rows tie
// too, with queries equal to rows: ties at every distance, decided on the
// external id wherever they cross leaves. Column 0 takes −0 and +0 as its
// minimum, in no particular order.
func dupData(n, d int, seed int64) (data, queries *vec.Matrix) {
	rng := xrand.New(seed)
	data = vec.NewMatrix(n, d)
	negZero := float32(math.Copysign(0, -1))
	for i := 0; i < n; i++ {
		if i%3 == 2 {
			copy(data.Row(i), data.Row(rng.Intn(i)))
			continue
		}
		for j := range data.Row(i) {
			data.Row(i)[j] = float32(rng.Intn(9)) + 10*float32(i%5)
		}
		if rng.Intn(2) == 0 {
			data.Row(i)[0] = negZero
		} else {
			data.Row(i)[0] = 0
		}
	}
	queries = vec.NewMatrix(30, d)
	for i := 0; i < queries.N; i++ {
		copy(queries.Row(i), data.Row(rng.Intn(n)))
	}
	return data, queries
}

// TestLeafOrderMatchesInputOrder is the property behind the leaf-ordered
// row block: for static, overlay with tombstones, compacted and
// ReadIndex-loaded indexes, over Z^M and E8, single, multi and hierarchy
// probing, SQ8 re-rank and the Hamming metric, a heap index in leaf order
// answers every read exactly as the same index in input order does.
func TestLeafOrderMatchesInputOrder(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"zm-single", Options{Partitioner: PartitionRPTree, Groups: 5, Params: lshfunc.Params{M: 4, L: 3, W: 6}}},
		{"zm-multi-kmeans", Options{Partitioner: PartitionKMeans, Groups: 4, ProbeMode: ProbeMulti, Probes: 6,
			Params: lshfunc.Params{M: 4, L: 3, W: 4}}},
		{"e8-hierarchy", Options{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8, ProbeMode: ProbeHierarchy,
			Params: lshfunc.Params{M: 8, L: 2, W: 5}}},
		{"zm-sq8", Options{Partitioner: PartitionRPTree, Groups: 6, Quantize: QuantizeSQ8, RerankFactor: 1,
			ProbeMode: ProbeMulti, Probes: 4, Params: lshfunc.Params{M: 4, L: 3, W: 6}}},
		{"hamming", Options{Metric: MetricHamming, Bits: 64, Partitioner: PartitionRPTree, Groups: 4,
			ProbeMode: ProbeMulti, Probes: 5, Params: lshfunc.Params{M: 6, L: 4}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data, qs := dupData(600, 16, 71)
			opts := c.opts
			opts.MemtableThreshold = 8
			ix, err := Build(data, opts, xrand.New(72))
			if err != nil {
				t.Fatal(err)
			}
			dead := map[int]bool{}
			ref := inputOrder(t, ix)
			sameAnswers(t, "static", ix, ref, qs)
			checkModel(t, "static", ix, ref, data, dead, qs.Row(0))

			var img bytes.Buffer
			if _, err := ix.WriteTo(&img); err != nil {
				t.Fatal(err)
			}
			loaded, err := ReadIndex(bytes.NewReader(img.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			ref = inputOrder(t, loaded)
			sameAnswers(t, "ReadIndex", loaded, ref, qs)
			sameAnswers(t, "ReadIndex against Build", loaded, ix, qs)
			checkModel(t, "ReadIndex", loaded, ref, data, dead, qs.Row(1))

			rng := xrand.New(73)
			if opts.Metric != MetricHamming {
				for i := 0; i < 30; i++ { // copies of base rows: ties across base and overlay
					if _, err := ix.Insert(data.Row(rng.Intn(data.N))); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < 40; i++ {
				if id := rng.Intn(ix.loadSnap().total()); ix.Delete(id) {
					dead[id] = true
				}
			}
			ref = inputOrder(t, ix)
			sameAnswers(t, "overlay", ix, ref, qs)
			checkModel(t, "overlay", ix, ref, nil, dead, qs.Row(2))
			if opts.Metric == MetricHamming {
				return // Hamming indexes are static
			}

			if _, err := ix.Compact(); err != nil {
				t.Fatal(err)
			}
			ref = inputOrder(t, ix)
			sameAnswers(t, "compacted", ix, ref, qs)
			checkModel(t, "compacted", ix, ref, nil, map[int]bool{}, qs.Row(3))
		})
	}
}

// TestLeafOrderCompactCarriesRacedDelete deletes a base row while a
// compaction merges its tables (through the mergeTable hook): the row is
// copied into the new base at its leaf position, and the tombstone must
// follow it there, under the id Compact reports gone.
func TestLeafOrderCompactCarriesRacedDelete(t *testing.T) {
	data, qs := dupData(400, 16, 75)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 5,
		Params: lshfunc.Params{M: 4, L: 2, W: 6}}, xrand.New(76))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{11, 150, 299} {
		ix.Delete(id)
	}
	const raced = 230
	orig := mergeTable
	t.Cleanup(func() { mergeTable = orig })
	var once sync.Once
	mergeTable = func(b *lshtable.Builder, tab *lshtable.Table, remap []int, keys []byte, keyLen int, ids []int) (*lshtable.Table, error) {
		once.Do(func() {
			if !ix.Delete(raced) {
				t.Error("raced delete found the row dead")
			}
		})
		return orig(b, tab, remap, keys, keyLen, ids)
	}
	mapping, err := ix.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if mapping[raced] != -1 {
		t.Fatalf("Compact maps the row deleted during the merge to %d", mapping[raced])
	}
	nid := raced - 2 // rows 11 and 150 were gone before it
	if !slices.Equal(ix.Vector(nid), data.Row(raced)) {
		t.Fatalf("new id %d does not hold row %d", nid, raced)
	}
	dead := map[int]bool{nid: true}
	ref := inputOrder(t, ix)
	sameAnswers(t, "raced", ix, ref, qs)
	checkModel(t, "raced", ix, ref, nil, dead, qs.Row(0))
}

// TestLeafLayoutRejectsNonPartitions: the member lists ReadIndex lays out
// must partition the rows, each in ascending order; anything else is an
// error, never a panic or an order with holes. A partition lays out as
// its lists, group by group.
func TestLeafLayoutRejectsNonPartitions(t *testing.T) {
	for _, c := range []struct {
		members [][]int
		ok      bool
	}{
		{[][]int{{1, 3}, {0, 2, 4}}, true},
		{[][]int{{0, 1}, {2, 3, 4}}, true}, // identity
		{[][]int{{1, 3}, {}, {0, 2, 4}}, true},
		{[][]int{{1, 3}, {0, 2}}, false}, // row 4 in no group
		{[][]int{{1, 3}, {0, 2, 3, 4}}, false},
		{[][]int{{3, 1}, {0, 2, 4}}, false},
		{[][]int{{1, 3}, {0, 2, 5}}, false},
		{[][]int{{-1, 3}, {0, 2, 4}}, false},
	} {
		t.Run(fmt.Sprint(c.members), func(t *testing.T) {
			groupOf, err := groupsOf(c.members, 5)
			if (err == nil) != c.ok {
				t.Fatalf("err %v, want ok=%v", err, c.ok)
			}
			if err != nil {
				return
			}
			o, members, starts := leafLayout(groupOf, len(c.members))
			for gi, ids := range members {
				if !slices.Equal(ids, c.members[gi]) {
					t.Fatalf("group %d members %v, want %v", gi, ids, c.members[gi])
				}
				for i, id := range ids {
					if o.position(id) != starts[gi]+i || o.extID(starts[gi]+i) != id {
						t.Fatalf("group %d row %d: position %d, block starts at %d", gi, id, o.position(id), starts[gi])
					}
				}
			}
		})
	}
}

// TestPermuteRowsMatchesGather: moving rows into an order in place gives
// the rows a gathering copy gives, for permutations with fixed points,
// long cycles and swaps.
func TestPermuteRowsMatchesGather(t *testing.T) {
	rng := xrand.New(74)
	for _, n := range []int{1, 2, 7, 64, 65, 300} {
		ext := make([]int, n)
		for i := range ext {
			ext[i] = i
		}
		rng.Shuffle(n, func(i, j int) {
			if rng.Intn(3) > 0 {
				ext[i], ext[j] = ext[j], ext[i]
			}
		})
		data := vec.NewMatrix(n, 3)
		for i := range data.Data {
			data.Data[i] = float32(i)
		}
		want := rowOrder{ext: ext}.gather(data)
		permuteRows(data.Data, data.D, ext)
		if !slices.Equal(data.Data, want.Data) {
			t.Fatalf("n=%d: permuted %v, gathered %v", n, data.Data, want.Data)
		}
	}
}
