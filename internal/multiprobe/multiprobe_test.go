package multiprobe

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"bilsh/internal/lattice"
	"bilsh/internal/xrand"
)

func randomY(rng *xrand.RNG, m int, scale float64) []float64 {
	y := make([]float64, m)
	for i := range y {
		y[i] = rng.NormFloat64() * scale
	}
	return y
}

// probeScore recomputes the Lv et al. score of a probe code: the sum of
// squared boundary distances over the perturbed dimensions.
func probeScore(home []int32, y []float64, probe []int32) float64 {
	var s float64
	for i := range home {
		d := probe[i] - home[i]
		frac := y[i] - float64(home[i])
		switch d {
		case 0:
		case -1:
			s += frac * frac
		case 1:
			s += (1 - frac) * (1 - frac)
		default:
			return math.Inf(1) // outside the ±1 perturbation model
		}
	}
	return s
}

func TestZMProbesBasics(t *testing.T) {
	z := lattice.NewZM(8)
	rng := xrand.New(1)
	y := randomY(rng, 8, 3)
	probes := ZMProbes(z, y, 50)
	if len(probes) != 50 {
		t.Fatalf("got %d probes, want 50", len(probes))
	}
	home := z.Decode(y)
	for i, h := range home {
		if probes[0][i] != h {
			t.Fatal("first probe must be the home bucket")
		}
	}
	seen := map[string]bool{}
	for _, p := range probes {
		k := lattice.Key(p)
		if seen[k] {
			t.Fatalf("duplicate probe %v", p)
		}
		seen[k] = true
	}
}

// Property: the probe sequence is emitted in non-decreasing score order —
// the defining guarantee of the heap-based generation.
func TestZMProbeOrderMonotone(t *testing.T) {
	z := lattice.NewZM(6)
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		y := randomY(rng, 6, 4)
		probes := ZMProbes(z, y, 40)
		home := probes[0]
		prev := -1.0
		for _, p := range probes[1:] {
			s := probeScore(home, y, p)
			if math.IsInf(s, 1) {
				return false
			}
			if s < prev-1e-12 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestZMSecondProbeIsCheapestFlip(t *testing.T) {
	z := lattice.NewZM(4)
	// y chosen so dimension 2's lower wall is closest (frac 0.05).
	y := []float64{0.5, 0.4, 0.05, 0.7}
	probes := ZMProbes(z, y, 2)
	want := z.Decode(y)
	want[2]--
	for i := range want {
		if probes[1][i] != want[i] {
			t.Fatalf("second probe = %v, want %v", probes[1], want)
		}
	}
}

func TestZMProbesNeverDoublePerturbOneDim(t *testing.T) {
	z := lattice.NewZM(3)
	rng := xrand.New(5)
	y := randomY(rng, 3, 2)
	probes := ZMProbes(z, y, 100)
	home := probes[0]
	for _, p := range probes {
		for i := range p {
			d := p[i] - home[i]
			if d < -1 || d > 1 {
				t.Fatalf("probe %v perturbs dim %d by %d", p, i, d)
			}
		}
	}
}

func TestZMProbesEdgeCounts(t *testing.T) {
	z := lattice.NewZM(2)
	y := []float64{0.3, 0.6}
	if got := ZMProbes(z, y, 0); got != nil {
		t.Fatal("count=0 must return nil")
	}
	if got := ZMProbes(z, y, 1); len(got) != 1 {
		t.Fatal("count=1 must return only home")
	}
	// M=2 has finitely many ±1 perturbation sets (3^2 = 9 codes); huge
	// counts must terminate.
	got := ZMProbes(z, y, 1000)
	if len(got) > 9 {
		t.Fatalf("M=2 emitted %d probes; only 9 cells reachable", len(got))
	}
	if len(got) < 5 {
		t.Fatalf("M=2 emitted %d probes; expected most of the 3x3 block", len(got))
	}
}

func TestE8ProbesBasics(t *testing.T) {
	e := lattice.NewE8(8)
	rng := xrand.New(7)
	y := randomY(rng, 8, 2)
	probes := E8Probes(e, y, 241)
	if len(probes) != 241 {
		t.Fatalf("got %d probes, want 241 (home + kissing number)", len(probes))
	}
	home := e.Decode(y)
	for i := range home {
		if probes[0][i] != home[i] {
			t.Fatal("first probe must be home")
		}
	}
	seen := map[string]bool{}
	for _, p := range probes {
		var arr [8]int32
		copy(arr[:], p)
		if !lattice.IsE8(arr) {
			t.Fatalf("probe %v is not an E8 point", p)
		}
		k := lattice.Key(p)
		if seen[k] {
			t.Fatalf("duplicate probe %v", p)
		}
		seen[k] = true
	}
}

// Property: within the first ring, probes are ordered by distance from the
// query's projection to the neighbor lattice points.
func TestE8ProbeDistanceOrder(t *testing.T) {
	e := lattice.NewE8(8)
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		y := randomY(rng, 8, 1.5)
		probes := E8Probes(e, y, 100)
		prev := -1.0
		for _, p := range probes[1:] {
			var d2 float64
			for j := range p {
				diff := y[j] - float64(p[j])/2
				d2 += diff * diff
			}
			if d2 < prev-1e-9 {
				return false
			}
			prev = d2
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestE8ProbesRecursiveExpansion(t *testing.T) {
	e := lattice.NewE8(8)
	rng := xrand.New(9)
	y := randomY(rng, 8, 1)
	// More than one ring's worth: must keep producing unique E8 codes.
	probes := E8Probes(e, y, 500)
	if len(probes) != 500 {
		t.Fatalf("expansion produced %d probes, want 500", len(probes))
	}
	seen := map[string]bool{}
	for _, p := range probes {
		k := lattice.Key(p)
		if seen[k] {
			t.Fatal("duplicate in expanded rings")
		}
		seen[k] = true
	}
}

func TestE8ProbesMultiBlock(t *testing.T) {
	e := lattice.NewE8(16) // two blocks
	rng := xrand.New(11)
	y := randomY(rng, 16, 2)
	probes := E8Probes(e, y, 481) // home + 240 per block
	if len(probes) != 481 {
		t.Fatalf("got %d probes", len(probes))
	}
	home := probes[0]
	// Each first-ring probe differs from home in exactly one block.
	for _, p := range probes[1:] {
		blocksChanged := 0
		for b := 0; b < 16; b += 8 {
			diff := false
			for j := b; j < b+8; j++ {
				if p[j] != home[j] {
					diff = true
				}
			}
			if diff {
				blocksChanged++
			}
		}
		if blocksChanged != 1 {
			t.Fatalf("first-ring probe %v changes %d blocks", p, blocksChanged)
		}
	}
}

func BenchmarkZMProbes240(b *testing.B) {
	z := lattice.NewZM(8)
	rng := xrand.New(1)
	y := randomY(rng, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ZMProbes(z, y, 240)
	}
}

func BenchmarkE8Probes240(b *testing.B) {
	e := lattice.NewE8(8)
	rng := xrand.New(1)
	y := randomY(rng, 8, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		E8Probes(e, y, 241)
	}
}

// BenchmarkRingProbesInto is probe generation as a query runs it: a reused
// scratch and a different projection per call (64 cycled), at the counts
// that select part of the first ring (128), all of it (241 on one E8
// block) and a second ring (500 on one block). The on-point cases put
// every projection on a lattice point, where all 240 neighbors of a block
// are equidistant and every comparison of the ordering is a tie broken by
// the codes.
func BenchmarkRingProbesInto(b *testing.B) {
	type gen struct {
		name    string
		m       int
		onPoint bool
		into    func(s *Scratch, y []float64, count int)
		counts  []int
	}
	e8, e16 := lattice.NewE8(8), lattice.NewE8(16)
	gens := []gen{
		{"E8/M=8", 8, false, func(s *Scratch, y []float64, n int) { E8ProbesInto(s, e8, y, n) }, []int{128, 241, 500}},
		{"E8/M=16", 16, false, func(s *Scratch, y []float64, n int) { E8ProbesInto(s, e16, y, n) }, []int{128, 241, 500}},
		{"E8/M=8/on-point", 8, true, func(s *Scratch, y []float64, n int) { E8ProbesInto(s, e8, y, n) }, []int{128, 241}},
	}
	for _, g := range gens {
		rng := xrand.New(3)
		ys := make([][]float64, 64)
		for i := range ys {
			ys[i] = randomY(rng, g.m, 3)
			if g.onPoint {
				for j, c := range lattice.NewE8(g.m).Decode(ys[i]) {
					ys[i][j] = float64(c) / 2
				}
			}
		}
		for _, count := range g.counts {
			b.Run(fmt.Sprintf("%s/count=%d", g.name, count), func(b *testing.B) {
				var s Scratch
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					g.into(&s, ys[i%len(ys)], count)
				}
			})
		}
	}
}
