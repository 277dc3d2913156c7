package core

import (
	"bytes"
	"io"
	"testing"

	"bilsh/internal/lattice"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// allocIndex builds a small fixed-seed index for allocation pinning.
func allocIndex(t *testing.T, mode ProbeMode) (*Index, *vec.Matrix) {
	t.Helper()
	rng := xrand.New(3)
	const n, d = 600, 16
	data := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		copy(data.Row(i), rng.GaussianVec(d))
	}
	qs := vec.NewMatrix(32, d)
	for i := 0; i < qs.N; i++ {
		copy(qs.Row(i), data.Row(rng.Intn(n)))
	}
	ix, err := Build(data, Options{
		Partitioner: PartitionRPTree,
		Groups:      4,
		ProbeMode:   mode,
		Probes:      8,
	}, xrand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	return ix, qs
}

// TestQueryAllocs pins the steady-state allocation count of Query: after
// warm-up, each call may allocate only the returned result slices (IDs and
// Dists), for every probe mode.
func TestQueryAllocs(t *testing.T) {
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		t.Run(mode.String(), func(t *testing.T) {
			ix, qs := allocIndex(t, mode)
			// Warm the pool and grow every scratch buffer to its high-water
			// mark. Use one pinned scratch so a GC clearing the pool between
			// runs cannot charge a re-allocation to the measurement.
			s := ix.getScratch()
			for i := 0; i < qs.N; i++ {
				ix.query(qs.Row(i), 5, s)
			}
			qi := 0
			got := testing.AllocsPerRun(200, func() {
				ix.query(qs.Row(qi%qs.N), 5, s)
				qi++
			})
			// knn.Result's IDs and Dists are the only permitted allocations.
			if got > 2 {
				t.Fatalf("Query allocates %.1f/op in steady state, want <= 2 (result slices only)", got)
			}
		})
	}
}

// TestCandidateListAllocs pins CandidateList to the returned id slice. Like
// TestQueryAllocs it holds one scratch across the runs: under -race the
// pool drops a share of its Puts, and a scratch grown afresh would charge
// its buffers to the measurement.
func TestCandidateListAllocs(t *testing.T) {
	ix, qs := allocIndex(t, ProbeSingle)
	s := ix.getScratch()
	for i := 0; i < qs.N; i++ {
		ix.candidateList(qs.Row(i), s)
	}
	qi := 0
	got := testing.AllocsPerRun(200, func() {
		ix.candidateList(qs.Row(qi%qs.N), s)
		qi++
	})
	if got > 2 {
		t.Fatalf("CandidateList allocates %.1f/op in steady state, want <= 2", got)
	}
}

// TestAppendKeyAllocs pins lattice.AppendKey to zero allocations once the
// destination buffer has capacity.
func TestAppendKeyAllocs(t *testing.T) {
	code := []int32{-3, 1, 0, 7, 2147483647, -2147483648}
	dst := make([]byte, 0, 4*len(code))
	got := testing.AllocsPerRun(200, func() {
		dst = lattice.AppendKey(dst[:0], code)
	})
	if got != 0 {
		t.Fatalf("AppendKey allocates %.1f/op with preallocated dst, want 0", got)
	}
	if string(dst) != lattice.Key(code) {
		t.Fatalf("AppendKey image differs from Key")
	}
}

// TestBuildTablesAllocsPerTable pins the build's hashing loop: with a
// worker's scratch grown once, hashing a group into its L tables allocates
// the tables — a handful of arrays each — and nothing per row.
func TestBuildTablesAllocsPerTable(t *testing.T) {
	ix, _ := allocIndex(t, ProbeSingle)
	sn := ix.loadSnap()
	old := sn.groups[0]
	var s hashScratch
	hash := func(rows int) float64 {
		ids := make([]int, rows)
		for i := range ids {
			ids[i] = i % sn.data.N
		}
		g := &group{fam: old.fam, lat: old.lat, w: old.w}
		return testing.AllocsPerRun(3, func() {
			if err := g.buildTables(&s, ids, func(i int) []float32 { return sn.data.Row(ids[i]) }); err != nil {
				t.Fatal(err)
			}
		})
	}
	hash(6000) // grow the scratch to its high-water mark
	few, many := hash(60), hash(6000)
	perTable := many / float64(old.fam.L())
	if many > few+float64(old.fam.L()) || perTable > 16 {
		t.Fatalf("hashing 6000 rows allocates %.0f times (%.1f per table), 60 rows %.0f: want O(tables)", many, perTable, few)
	}
}

// TestWriteToAllocs pins WriteTo to a constant number of allocations —
// its writer and that writer's buffers — at any n: no section allocates
// per row, posting or key.
func TestWriteToAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{2000, 8000} {
		ix := serveShapedIndex(t, n)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, err := ix.WriteTo(io.Discard); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[0] > 4 {
		t.Fatalf("WriteTo allocates %v at n = 2000 and 8000, want the same count, at most 4", counts)
	}
}

// TestReadIndexAllocs pins ReadIndex to O(groups × L) allocations: each
// table and each hash function costs a few, a row or a posting none.
func TestReadIndexAllocs(t *testing.T) {
	for _, n := range []int{2000, 8000} {
		ix := serveShapedIndex(t, n)
		var img bytes.Buffer
		if _, err := ix.WriteTo(&img); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := ReadIndex(bytes.NewReader(img.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
		tables := ix.NumGroups() * ix.Options().Params.L
		t.Logf("n = %d: %d groups, %d tables, %v allocations", n, ix.NumGroups(), tables, allocs)
		if limit := float64(16*tables + 64); allocs > limit {
			t.Fatalf("ReadIndex of n = %d allocates %v, want at most %v (16 per table + 64)", n, allocs, limit)
		}
	}
}
