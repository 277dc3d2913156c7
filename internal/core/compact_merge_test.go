package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// refCompactRebuild is compaction as it was before tables were merged, kept
// as the oracle for the merge: phase 1's renumbering, then phase 2 verbatim
// (copy the survivors, route every one of them, and hash every group's
// tables from scratch), run over ix's current snapshot with nothing racing
// it and returned as a fresh index whose rows stay in id order (the
// identity row order).
func refCompactRebuild(t *testing.T, ix *Index) *Index {
	t.Helper()
	src := ix.loadSnap()
	srcTotal := src.total()
	mapping := make([]int, srcTotal)
	live := 0
	for id := 0; id < srcTotal; id++ {
		if src.isDeleted(src.position(id)) {
			mapping[id] = -1
			continue
		}
		mapping[id] = live
		live++
	}

	fresh := vec.NewMatrix(live, src.data.D)
	for id := 0; id < srcTotal; id++ {
		if mapping[id] < 0 {
			continue
		}
		copy(fresh.Row(mapping[id]), src.row(src.position(id)))
	}

	// Re-group: membership is recomputed by routing, which also covers
	// inserted points, and per-group tables are rebuilt from scratch with
	// the existing hash families (projections are preserved, so queries
	// keep behaving identically for surviving points).
	members := make([][]int, len(src.groups))
	for id := 0; id < live; id++ {
		gi := src.groupOf(fresh.Row(id))
		members[gi] = append(members[gi], id)
	}
	groups := make([]*group, len(src.groups))
	opts := ix.opts
	err := forEachGroup(members, func(s *hashScratch, gi int) error {
		old := src.groups[gi]
		g := &group{members: members[gi], fam: old.fam, lat: old.lat, w: old.w}
		if err := g.buildTables(s, g.members, func(i int) []float32 { return fresh.Row(g.members[i]) }); err != nil {
			return fmt.Errorf("core: Compact group %d: %w", gi, err)
		}
		if err := buildGroupHierarchies(g, opts); err != nil {
			return fmt.Errorf("core: group %d hierarchy: %w", gi, err)
		}
		groups[gi] = g
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	quant := buildQuant(opts, fresh, nil)
	return newIndex(opts, fresh, quant, src.level1, groups)
}

// compactHistory is a sequence of mutations, each batch ended by check,
// which compacts and compares the result with the oracle's.
type compactHistory struct {
	name string
	run  func(t *testing.T, ix *Index, extra *vec.Matrix, check func())
}

// insertRows inserts extra's rows [lo, hi) and returns their ids.
func insertRows(t *testing.T, ix *Index, extra *vec.Matrix, lo, hi int) []int {
	t.Helper()
	ids := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		id, err := ix.Insert(extra.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// keepHalf inserts 40 rows, deletes every other one and 1 % of the base.
func keepHalf(t *testing.T, ix *Index, extra *vec.Matrix) {
	for i, id := range insertRows(t, ix, extra, 0, 40) {
		if i%2 == 0 {
			ix.Delete(id)
		}
	}
	for _, id := range []int{3, 97, 201, 388} {
		ix.Delete(id)
	}
}

var compactHistories = []compactHistory{
	// The benchmark's churn: every insert deleted again.
	{"churn", func(t *testing.T, ix *Index, extra *vec.Matrix, check func()) {
		for _, id := range insertRows(t, ix, extra, 0, 40) {
			ix.Delete(id)
		}
		check()
	}},
	{"keep-half", func(t *testing.T, ix *Index, extra *vec.Matrix, check func()) {
		keepHalf(t, ix, extra)
		check()
	}},
	// Every id of the largest group's fullest table-0 bucket deleted, so
	// the merge must drop the bucket.
	{"empty-bucket", func(t *testing.T, ix *Index, extra *vec.Matrix, check func()) {
		sn := ix.loadSnap()
		var fullest []int
		for _, g := range sn.groups {
			for b := 0; b < g.tables[0].NumBuckets(); b++ {
				if _, ids := g.tables[0].BucketByOrdinal(b); len(ids) > len(fullest) {
					fullest = ids
				}
			}
		}
		for _, p := range fullest {
			ix.Delete(sn.extID(p))
		}
		insertRows(t, ix, extra, 0, 5)
		check()
	}},
	// Enough inserts to seal several memtables of 8 rows.
	{"segments", func(t *testing.T, ix *Index, extra *vec.Matrix, check func()) {
		ids := insertRows(t, ix, extra, 0, 60)
		if sealed := len(ix.loadSnap().frozen); sealed < 3 {
			t.Fatalf("%d sealed segments, want several", sealed)
		}
		for _, id := range ids[5:20] {
			ix.Delete(id)
		}
		ix.Delete(150)
		check()
	}},
	// A compaction of an already compacted index.
	{"twice", func(t *testing.T, ix *Index, extra *vec.Matrix, check func()) {
		keepHalf(t, ix, extra)
		check()
		for _, id := range insertRows(t, ix, extra, 40, 70) {
			if id%3 != 0 {
				ix.Delete(id)
			}
		}
		ix.Delete(10)
		check()
	}},
}

// TestCompactMatchesRebuild pins the merging compaction to
// refCompactRebuild: after every history, the compacted index writes the
// bytes the rebuild writes and answers queries identically, for every
// lattice × probe mode × partitioner × row store, from a heap and from a
// mapped base.
func TestCompactMatchesRebuild(t *testing.T) {
	rng := xrand.New(61)
	gaussian := func(n int) *vec.Matrix {
		m := vec.NewMatrix(n, 12)
		for i := 0; i < n; i++ {
			copy(m.Row(i), rng.GaussianVec(m.D))
		}
		return m
	}
	data, extra, queries := gaussian(400), gaussian(80), gaussian(8)
	for _, lat := range []LatticeKind{LatticeZM, LatticeE8} {
		for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
			for _, part := range []PartitionerKind{PartitionRPTree, PartitionKMeans, PartitionNone} {
				for _, quant := range []QuantizeKind{QuantizeNone, QuantizeSQ8} {
					opts := Options{
						Partitioner: part, Groups: 4, AutoTuneW: true,
						Lattice: lat, ProbeMode: mode, Probes: 6, Quantize: quant,
						Params: lshfunc.Params{M: 8, L: 3, W: 1},
					}
					name := fmt.Sprintf("%v/%v/%v/%v", lat, mode, part, quant)
					t.Run(name, func(t *testing.T) {
						testCompactMatchesRebuild(t, data, extra, queries, opts)
					})
				}
			}
		}
	}
}

func testCompactMatchesRebuild(t *testing.T, data, extra, queries *vec.Matrix, opts Options) {
	built, err := Build(data, opts, xrand.New(64))
	if err != nil {
		t.Fatal(err)
	}
	if opts.Partitioner == PartitionKMeans {
		// k-means assigns its rows against its final centroids, so a fresh
		// build never disagrees with routing. Nudge one centroid toward
		// another, as a refit would move it, so that routing moves base
		// rows out of the group whose tables hold them.
		cents := built.loadSnap().km.Centroids
		c0, c1 := cents.Row(0), cents.Row(1)
		for d := range c0 {
			c0[d] += 0.25 * (c1[d] - c0[d])
		}
		if routingMoves(built) == 0 {
			t.Fatal("no base row routes away from its k-means group: the arrival path of base rows goes untested")
		}
	}
	var image bytes.Buffer
	if _, err := built.WriteTo(&image); err != nil {
		t.Fatal(err)
	}
	path := saveV3(t, built)

	for _, mapped := range []bool{false, true} {
		for _, h := range compactHistories {
			var ix *Index
			if mapped {
				dix, err := OpenDisk(path)
				if err != nil {
					t.Fatal(err)
				}
				defer dix.Close()
				if !dix.Mapped() {
					t.Fatal("OpenDisk did not map the index")
				}
				ix = dix.Index
			} else {
				if ix, err = ReadIndex(bytes.NewReader(image.Bytes())); err != nil {
					t.Fatal(err)
				}
			}
			ix.ConfigureDynamic(8, 0)
			step := 0
			h.run(t, ix, extra, func() {
				t.Helper()
				step++
				want := refCompactRebuild(t, ix)
				if _, err := ix.Compact(); err != nil {
					t.Fatal(err)
				}
				var got, ref bytes.Buffer
				if _, err := ix.WriteTo(&got); err != nil {
					t.Fatal(err)
				}
				if _, err := want.WriteTo(&ref); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), ref.Bytes()) {
					t.Fatalf("mapped=%v %s compaction %d: WriteTo differs from the rebuild's (%d vs %d bytes)",
						mapped, h.name, step, got.Len(), ref.Len())
				}
				for qi := 0; qi < queries.N; qi++ {
					gr, _ := ix.Query(queries.Row(qi), 5)
					wr, _ := want.Query(queries.Row(qi), 5)
					if !reflect.DeepEqual(gr, wr) {
						t.Fatalf("mapped=%v %s compaction %d query %d: %v, rebuild %v", mapped, h.name, step, qi, gr, wr)
					}
				}
			})
		}
	}
}

// routingMoves counts the base rows that level-1 routing sends to a group
// other than the one whose tables hold them.
func routingMoves(ix *Index) int {
	sn := ix.loadSnap()
	moved := 0
	for gi, g := range sn.groups {
		for _, id := range g.members {
			if sn.groupOf(sn.data.Row(sn.position(id))) != gi {
				moved++
			}
		}
	}
	return moved
}
