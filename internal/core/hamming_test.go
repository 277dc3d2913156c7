package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// hammingIndex builds a small fixed-seed Hamming index over clustered data.
func hammingIndex(t testing.TB, mode ProbeMode, probes int) (*Index, *vec.Matrix) {
	t.Helper()
	return hammingIndexM(t, mode, probes, 16)
}

// hammingIndexM is hammingIndex with m key bits per table.
func hammingIndexM(t testing.TB, mode ProbeMode, probes, m int) (*Index, *vec.Matrix) {
	t.Helper()
	rng := xrand.New(17)
	// Clustered data: true neighbors must be genuinely close in Hamming
	// space for recall against the exact scan to be meaningful. 100
	// clusters of 8 points whose sketches differ in only a few bits.
	const clusters, perCluster, d = 100, 8, 24
	const n = clusters * perCluster
	data := vec.NewMatrix(n, d)
	for c := 0; c < clusters; c++ {
		center := rng.GaussianVec(d)
		for p := 0; p < perCluster; p++ {
			row := data.Row(c*perCluster + p)
			for j := range row {
				row[j] = center[j] + 0.08*float32(rng.NormFloat64())
			}
		}
	}
	qs := vec.NewMatrix(40, d)
	for i := 0; i < qs.N; i++ {
		base := data.Row(rng.Intn(n))
		row := qs.Row(i)
		for j := range row {
			row[j] = base[j] + 0.02*float32(rng.NormFloat64())
		}
	}
	ix, err := Build(data, Options{
		Metric:      MetricHamming,
		Bits:        256,
		Partitioner: PartitionRPTree,
		Groups:      4,
		ProbeMode:   mode,
		Probes:      probes,
		Params:      lshfunc.Params{M: m, L: 8},
	}, xrand.New(23))
	if err != nil {
		t.Fatal(err)
	}
	return ix, qs
}

// TestHammingBuildQuery drives Options{Metric: Hamming} end to end:
// build, query, and compare against the exact-Hamming linear scan.
func TestHammingBuildQuery(t *testing.T) {
	for _, tc := range []struct {
		mode      ProbeMode
		probes    int
		minRecall float64
	}{
		{ProbeSingle, 1, 0.45},
		{ProbeMulti, 24, 0.70},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			ix, qs := hammingIndex(t, tc.mode, tc.probes)
			const k = 10
			var hit, want int
			for qi := 0; qi < qs.N; qi++ {
				q := qs.Row(qi)
				res, st := ix.Query(q, k)
				exact := ix.ExactKNN(q, k)
				want += len(exact.IDs)
				truth := map[int]bool{}
				for _, id := range exact.IDs {
					truth[id] = true
				}
				for _, id := range res.IDs {
					if truth[id] {
						hit++
					}
				}
				// Returned distances must be the exact Hamming distances,
				// ascending.
				for i, id := range res.IDs {
					d := float64(vec.Hamming(sketchOf(ix, id), querySketch(ix, q)))
					if res.Dists[i] != d {
						t.Fatalf("query %d: result %d distance %g, want exact %g", qi, id, res.Dists[i], d)
					}
					if i > 0 && res.Dists[i] < res.Dists[i-1] {
						t.Fatalf("query %d: distances not ascending", qi)
					}
				}
				if st.Candidates == 0 {
					t.Fatalf("query %d gathered no candidates", qi)
				}
			}
			recall := float64(hit) / float64(want)
			if recall < tc.minRecall {
				t.Fatalf("recall %.3f below %.2f floor", recall, tc.minRecall)
			}
		})
	}
}

// sketchOf returns row id's packed sketch (test helper).
func sketchOf(ix *Index, id int) []uint64 {
	return ix.loadSnap().sketches.Row(id)
}

// querySketch sketches q with the index's sketcher (test helper).
func querySketch(ix *Index, q []float32) []uint64 {
	sn := ix.loadSnap()
	out := make([]uint64, sn.sketcher.Words())
	sn.sketcher.Sketch(q, out)
	return out
}

// TestHammingMultiprobeBeatsSingle pins the point of query-directed flips:
// more probes gather strictly more candidates and at least as much recall.
func TestHammingMultiprobeBeatsSingle(t *testing.T) {
	ixS, qs := hammingIndex(t, ProbeSingle, 1)
	ixM, _ := hammingIndex(t, ProbeMulti, 24)
	var candS, candM int
	for qi := 0; qi < qs.N; qi++ {
		_, stS := ixS.Query(qs.Row(qi), 10)
		_, stM := ixM.Query(qs.Row(qi), 10)
		candS += stS.Candidates
		candM += stM.Candidates
		if stM.Probes <= stS.Probes {
			t.Fatalf("query %d: multiprobe probed %d buckets, single %d", qi, stM.Probes, stS.Probes)
		}
	}
	if candM <= candS {
		t.Fatalf("multiprobe gathered %d candidates total, single %d", candM, candS)
	}
}

// TestHammingRoundTrip pins the wire v4 format: a Hamming index writes the
// v4 magic, serialization is byte-deterministic, and the decoded index
// queries byte-identically.
func TestHammingRoundTrip(t *testing.T) {
	ix, qs := hammingIndex(t, ProbeMulti, 16)
	var buf1, buf2 bytes.Buffer
	if _, err := ix.WriteTo(&buf1); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.WriteTo(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("two WriteTo calls produced different bytes")
	}
	if !strings.Contains(string(buf1.Bytes()[:32]), "bilsh.Index/4") {
		t.Fatalf("Hamming index did not write the v4 magic: %q", buf1.Bytes()[:32])
	}
	ix2, err := ReadIndex(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ix2.Options().Metric != MetricHamming || ix2.Options().Bits != 256 {
		t.Fatalf("decoded options lost the metric: %+v", ix2.Options())
	}
	for qi := 0; qi < qs.N; qi++ {
		q := qs.Row(qi)
		a, _ := ix.Query(q, 10)
		b, _ := ix2.Query(q, 10)
		if len(a.IDs) != len(b.IDs) {
			t.Fatalf("query %d: result sizes differ", qi)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] || a.Dists[i] != b.Dists[i] {
				t.Fatalf("query %d: decoded index diverges at rank %d", qi, i)
			}
		}
	}
}

// TestEuclideanStillWritesV2 is the backcompat pin: adding the Hamming
// family must not move Euclidean indexes off the v2 container (whose v1/v2
// files load byte-identically by the existing serialization suite).
func TestEuclideanStillWritesV2(t *testing.T) {
	rng := xrand.New(3)
	data := vec.NewMatrix(100, 8)
	for i := 0; i < data.N; i++ {
		copy(data.Row(i), rng.GaussianVec(8))
	}
	ix, err := Build(data, Options{}, xrand.New(4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf.Bytes()[:32]), "bilsh.Index/2") {
		t.Fatalf("Euclidean index stopped writing the v2 magic: %q", buf.Bytes()[:32])
	}
	if _, err := ReadIndex(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestHammingQueryAllocs extends the ≤2-alloc pin to binary indexes.
func TestHammingQueryAllocs(t *testing.T) {
	for _, tc := range []struct {
		mode   ProbeMode
		probes int
	}{{ProbeSingle, 1}, {ProbeMulti, 24}} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			ix, qs := hammingIndex(t, tc.mode, tc.probes)
			s := ix.getScratch()
			for i := 0; i < qs.N; i++ {
				ix.query(qs.Row(i), 5, s)
			}
			qi := 0
			got := testing.AllocsPerRun(200, func() {
				ix.query(qs.Row(qi%qs.N), 5, s)
				qi++
			})
			if got > 2 {
				t.Fatalf("Hamming query allocates %.1f/op in steady state, want <= 2", got)
			}
		})
	}
}

// TestHammingStaticContract pins the dynamic-path gates: Insert/Compact
// refuse, Delete works (tombstone-only), and the disk tiers refuse.
func TestHammingStaticContract(t *testing.T) {
	ix, qs := hammingIndex(t, ProbeSingle, 1)
	if _, err := ix.Insert(qs.Row(0)); !errors.Is(err, ErrHammingStatic) {
		t.Fatalf("Insert returned %v, want ErrHammingStatic", err)
	}
	if _, err := ix.Compact(); !errors.Is(err, ErrHammingStatic) {
		t.Fatalf("Compact returned %v, want ErrHammingStatic", err)
	}
	if err := ix.CompactAsync(); !errors.Is(err, ErrHammingStatic) {
		t.Fatalf("CompactAsync returned %v, want ErrHammingStatic", err)
	}
	if err := ix.SetQuantize(QuantizeSQ8, 0); err == nil {
		t.Fatal("SetQuantize(SQ8) accepted on a Hamming index")
	}

	// Delete is tombstone-only and must take effect in queries and ExactKNN.
	q := qs.Row(0)
	before := ix.ExactKNN(q, 5)
	if len(before.IDs) == 0 {
		t.Fatal("no neighbors")
	}
	victim := before.IDs[0]
	if !ix.Delete(victim) {
		t.Fatal("Delete reported miss for a live id")
	}
	after := ix.ExactKNN(q, 5)
	for _, id := range after.IDs {
		if id == victim {
			t.Fatal("deleted id still in ExactKNN results")
		}
	}
	res, _ := ix.Query(q, ix.N())
	for _, id := range res.IDs {
		if id == victim {
			t.Fatal("deleted id still in Query results")
		}
	}
}

// TestHammingOptionValidation covers the Hamming-specific constraint set.
func TestHammingOptionValidation(t *testing.T) {
	rng := xrand.New(1)
	data := vec.NewMatrix(64, 8)
	for i := 0; i < data.N; i++ {
		copy(data.Row(i), rng.GaussianVec(8))
	}
	build := func(o Options) error {
		_, err := Build(data, o, xrand.New(2))
		return err
	}
	if err := build(Options{Metric: MetricHamming, ProbeMode: ProbeHierarchy}); err == nil {
		t.Fatal("accepted ProbeHierarchy for Hamming")
	}
	if err := build(Options{Metric: MetricHamming, Bits: 8, Params: lshfunc.Params{M: 16, L: 2}}); err == nil {
		t.Fatal("accepted M > Bits")
	}
	if err := build(Options{Metric: MetricHamming, Quantize: QuantizeSQ8}); err == nil {
		t.Fatal("accepted SQ8 quantization for Hamming")
	}
	if err := build(Options{Metric: MetricKind(9)}); err == nil {
		t.Fatal("accepted an unknown metric kind")
	}
	// Defaults: Bits 256, M widened to 16, AutoTuneW forced off.
	ix, err := Build(data, Options{Metric: MetricHamming, AutoTuneW: true}, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	o := ix.Options()
	if o.Bits != 256 || o.Params.M != 16 || o.AutoTuneW {
		t.Fatalf("filled options = bits %d M %d autotune %v, want 256/16/false", o.Bits, o.Params.M, o.AutoTuneW)
	}
}

// TestParseMetricKind covers the CLI spellings.
func TestParseMetricKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want MetricKind
	}{{"", MetricEuclidean}, {"euclidean", MetricEuclidean}, {"l2", MetricEuclidean}, {"hamming", MetricHamming}} {
		got, err := ParseMetricKind(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMetricKind(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMetricKind("cosine"); err == nil {
		t.Fatal("accepted an unknown metric spelling")
	}
}
