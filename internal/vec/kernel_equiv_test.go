package vec

import (
	"math"
	"testing"

	"bilsh/internal/xrand"
)

// Kernel equivalence suite: every SIMD kernel available on this machine
// must agree with the portable kernel. The design contract (kernel.go) is
// bit-exactness — same lanes, same rounding, same reduction order — so
// these tests demand 0 ulps, which trivially satisfies the ≤1 ulp
// requirement and catches any lane-order or FMA regression immediately.
//
// On hardware without SIMD kernels (or under -tags noasm) the suite
// degenerates to portable-vs-portable and passes vacuously; the CI matrix
// runs both variants.

// equivLengths crosses the unroll boundary (4), the pair boundary of the
// row kernels (2 rows), and the paper's GIST dimensionality (960), plus
// the odd lengths the issue calls out.
var equivLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 33, 64, 127, 128, 960}

// adversarialFill produces values that stress rounding: denormals, huge
// (but overflow-free) magnitudes, exact powers of two, negatives, zeros.
func adversarialFill(n int, seed uint32) []float32 {
	xs := make([]float32, n)
	state := seed
	next := func() uint32 {
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state
	}
	for i := range xs {
		switch next() % 8 {
		case 0:
			xs[i] = math.Float32frombits(next() % 8) // denormals near zero
		case 1:
			xs[i] = -math.Float32frombits(next() % 8)
		case 2:
			xs[i] = float32(int32(next())) * 1e12 // large magnitudes, square stays finite in float64
		case 3:
			xs[i] = 0
		case 4:
			xs[i] = float32(math.Ldexp(1, int(next()%64)-32)) // exact powers of two
		default:
			xs[i] = float32(int32(next())) / float32(1<<28)
		}
	}
	return xs
}

func ulpDiff64(a, b float64) uint64 {
	if a == b {
		return 0
	}
	ab, bb := math.Float64bits(a), math.Float64bits(b)
	if ab > bb {
		return ab - bb
	}
	return bb - ab
}

// simdKernelNames lists the non-portable kernels compiled into this binary.
func simdKernelNames() []string {
	var names []string
	for _, k := range kernels {
		if k.name != "portable" {
			names = append(names, k.name)
		}
	}
	return names
}

// withKernel runs f with the named kernel active, restoring the previous
// selection afterwards.
func withKernel(t *testing.T, name string, f func()) {
	t.Helper()
	prev := KernelName()
	if err := UseKernel(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := UseKernel(prev); err != nil {
			t.Fatal(err)
		}
	}()
	f()
}

func TestKernelEquivalenceDotSqDist(t *testing.T) {
	for _, name := range simdKernelNames() {
		t.Run(name, func(t *testing.T) {
			for _, n := range equivLengths {
				// Unaligned offsets: slice into a shared backing array at
				// offsets that misalign the data relative to 16/32-byte
				// boundaries, since the assembly must not assume alignment.
				backing := adversarialFill(n+8, 7777+uint32(n))
				qback := adversarialFill(n+8, 13+uint32(n))
				for off := 0; off <= 3; off++ {
					a := backing[off : off+n]
					b := qback[off : off+n]
					wantDot := portableKernel.dot(a, b)
					wantSq := portableKernel.sqDist(a, b)
					var gotDot, gotSq float64
					withKernel(t, name, func() {
						gotDot = Dot(a, b)
						gotSq = SqDist(a, b)
					})
					if d := ulpDiff64(gotDot, wantDot); d > 0 {
						t.Fatalf("n=%d off=%d: Dot %s=%v portable=%v (%d ulps apart, want bit-exact)", n, off, name, gotDot, wantDot, d)
					}
					if d := ulpDiff64(gotSq, wantSq); d > 0 {
						t.Fatalf("n=%d off=%d: SqDist %s=%v portable=%v (%d ulps apart, want bit-exact)", n, off, name, gotSq, wantSq, d)
					}
				}
			}
		})
	}
}

func TestKernelEquivalenceSqDistToRows(t *testing.T) {
	for _, name := range simdKernelNames() {
		t.Run(name, func(t *testing.T) {
			for _, d := range equivLengths {
				if d == 0 {
					continue // a matrix needs d > 0
				}
				const rows = 9
				data := adversarialFill(rows*d, 31+uint32(d))
				q := adversarialFill(d, 41+uint32(d))
				// Odd id count exercises the single-row tail of the paired
				// scan; duplicates and non-monotone order must also work.
				ids := []int32{0, 8, 3, 3, 7, 1, 2}
				want := make([]float64, len(ids))
				portableKernel.sqDistToRows(want, data, d, ids, q)
				got := make([]float64, len(ids))
				withKernel(t, name, func() {
					SqDistToRows(got, data, d, ids, q)
				})
				for i := range ids {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("d=%d id=%d: %s=%v portable=%v (want bit-exact)", d, ids[i], name, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestKernelEquivalenceSQ8Rows(t *testing.T) {
	for _, name := range simdKernelNames() {
		t.Run(name, func(t *testing.T) {
			for _, d := range equivLengths {
				if d == 0 {
					continue
				}
				const rows = 9
				m := NewMatrix(rows, d)
				copy(m.Data, adversarialFill(rows*d, 97+uint32(d)))
				qm := QuantizeSQ8(m)
				q := adversarialFill(d, 101+uint32(d))
				ids := []int32{4, 0, 8, 2, 2, 6, 5}
				want := make([]float64, len(ids))
				portableKernel.sqDistSQ8Rows(want, qm.Codes, qm.D, qm.Min, qm.Scale, ids, q)
				got := make([]float64, len(ids))
				withKernel(t, name, func() {
					SqDistToRowsSQ8(got, qm, ids, q)
				})
				for i := range ids {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("d=%d id=%d: SQ8 %s=%v portable=%v (want bit-exact)", d, ids[i], name, got[i], want[i])
					}
				}
			}
		})
	}
}

// dotRowsDims covers every tail length against every block count up to the
// point where the 4-row body has run many iterations, then the two
// dimensions the benchmark workloads use.
func dotRowsDims() []int {
	var ds []int
	for d := 1; d <= 70; d++ {
		ds = append(ds, d)
	}
	return append(ds, 128, 960)
}

// TestKernelEquivalenceDotRows pins DotRows to per-row Dot on every kernel
// (portable included): row counts 0..9 cover the 4-row body twice over,
// each 1-3 row remainder, and the body-less d < 4 case.
func TestKernelEquivalenceDotRows(t *testing.T) {
	for _, name := range KernelNames() {
		t.Run(name, func(t *testing.T) {
			for _, d := range dotRowsDims() {
				backing := adversarialFill(9*d+3, 53+uint32(d))
				q := adversarialFill(d, 59+uint32(d))
				for n := 0; n <= 9; n++ {
					// off misaligns the matrix against 16/32-byte boundaries.
					off := n % 4
					rows := backing[off : off+n*d]
					got := make([]float64, n)
					withKernel(t, name, func() { DotRows(got, rows, d, q) })
					for i := range got {
						want := portableKernel.dot(rows[i*d:(i+1)*d], q)
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("d=%d rows=%d row %d: %s DotRows=%v, portable Dot=%v (want bit-exact)", d, n, i, name, got[i], want)
						}
					}
				}
			}
		})
	}
}

// halfFill returns n binary16 directions rounded from adversarialFill's
// values scaled into the binary16 range: subnormal, zero, negative and
// ±65504-scale halves, and ordinary Gaussian-scale ones.
func halfFill(n int, seed uint32) []uint16 {
	hs := make([]uint16, n)
	for i, x := range adversarialFill(n, seed) {
		if math.Abs(float64(x)) > 1e4 {
			x = float32(math.Mod(float64(x), 6e4))
		}
		hs[i] = HalfFromFloat32(x)
	}
	return hs
}

// f16Query returns a query of dimension d whose products with any
// binary16 direction stay finite in float32.
func f16Query(d int, seed uint32) []float32 {
	q := adversarialFill(d, seed)
	for i, x := range q {
		if math.Abs(float64(x)) > 1e6 {
			q[i] = float32(math.Mod(float64(x), 1e6))
		}
	}
	return q
}

// TestKernelEquivalenceDotRowsF16 pins DotRowsF16 and DotRowsManyF16 on
// every kernel (portable included) to the portable per-row projection:
// d from 1 to 70 (every tail length against the 8-wide blocks, and the
// body-less d < 8 case), 128 and 960, M of 1-5 and 16 (the 4-row body's
// remainders and the tile's odd last row), 1-9 vectors (the tile twice
// over and each 1-3 vector remainder), with the matrix and the vectors at
// misaligned addresses.
func TestKernelEquivalenceDotRowsF16(t *testing.T) {
	for _, name := range KernelNames() {
		t.Run(name, func(t *testing.T) {
			for _, d := range dotRowsDims() {
				for _, m := range []int{1, 2, 3, 4, 5, 16} {
					rows := halfFill(m*d+1, 71+uint32(d*m))[1:]
					backing := f16Query(9*(d+3), 73+uint32(d))
					vs := make([][]float32, 9)
					for r := range vs {
						off := (r*7)%9*(d+3) + r%4
						vs[r] = backing[off : off+d : off+d]
					}
					want := make([]float64, 9*m)
					for i := range want {
						want[i] = float64(dotF16Generic(rows[i%m*d:(i%m+1)*d], vs[i/m]))
					}
					for n := 1; n <= 9; n++ {
						got := make([]float64, n*m)
						one := make([]float64, n*m)
						withKernel(t, name, func() {
							DotRowsManyF16(got, rows, d, vs[:n])
							for r, v := range vs[:n] {
								DotRowsF16(one[r*m:(r+1)*m], rows, d, v)
							}
						})
						for i := range got {
							if math.Float64bits(one[i]) != math.Float64bits(want[i]) {
								t.Fatalf("d=%d M=%d vector %d row %d: %s DotRowsF16=%v, portable=%v (want bit-exact)", d, m, i/m, i%m, name, one[i], want[i])
							}
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("d=%d M=%d vectors=%d out[%d]: %s DotRowsManyF16=%v, portable=%v (want bit-exact)", d, m, n, i, name, got[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestDotF16LaneContract pins the portable binary16 projection to the
// contract in kernel.go, written out element by element: eight float32
// lanes, each product rounded before its add, the tail on lane 0, the
// fixed reduction, and only then the widening to float64.
func TestDotF16LaneContract(t *testing.T) {
	rng := xrand.New(9)
	for i, d := range []int{1, 7, 8, 9, 23, 64, 960, 8, 23, 64, 960} {
		// Adversarial values first, then Gaussian ones, whose sums round
		// at almost every add.
		h := halfFill(d, 91+uint32(d))
		q := f16Query(d, 97+uint32(d))
		if i >= 7 {
			for j, x := range rng.GaussianVec(d) {
				h[j] = HalfFromFloat32(x)
			}
			q = rng.GaussianVec(d)
		}
		var l [8]float32
		for i := 0; i < d&^7; i++ {
			p := HalfToFloat32(h[i]) * q[i]
			l[i%8] = l[i%8] + p
		}
		for i := d &^ 7; i < d; i++ {
			p := HalfToFloat32(h[i]) * q[i]
			l[0] = l[0] + p
		}
		want := float64(((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])))
		out := make([]float64, 1)
		DotRowsF16(out, h, d, q)
		if math.Float64bits(out[0]) != math.Float64bits(want) {
			t.Fatalf("d=%d: DotRowsF16=%v, contract=%v", d, out[0], want)
		}
	}
}

// TestKernelEquivalencePrefetchedScan drives the row scans through their
// prefetch path: id lists longer than the prefetch distance that start at
// row 0 and end at the last row (the prefetch addresses furthest from the
// middle of the matrix), of odd and even length, and lists shorter than
// the distance, over both row stores.
func TestKernelEquivalencePrefetchedScan(t *testing.T) {
	const rows = 64
	idLists := map[string][]int32{
		"all":          nil, // filled below: 0..rows-1
		"odd-count":    nil, // 0, 3, 6, ..., plus the last row: 23 ids
		"below-window": {0, rows - 1, 5},
		"window-edge":  {0, 1, 2, 3, 4, 5, 6, 7, 8, rows - 1},
		"single":       {rows - 1},
		"none":         {},
	}
	for i := int32(0); i < rows; i++ {
		idLists["all"] = append(idLists["all"], i)
		if i%3 == 0 {
			idLists["odd-count"] = append(idLists["odd-count"], i)
		}
	}
	idLists["odd-count"] = append(idLists["odd-count"], rows-1)
	for _, name := range simdKernelNames() {
		t.Run(name, func(t *testing.T) {
			// d=3 has no vector body, d=33 rows straddle cache lines,
			// d=960 rows exceed the prefetch cap.
			for _, d := range []int{3, 32, 33, 128, 960} {
				m := NewMatrix(rows, d)
				copy(m.Data, adversarialFill(rows*d, 211+uint32(d)))
				qm := QuantizeSQ8(m)
				q := adversarialFill(d, 223+uint32(d))
				for label, ids := range idLists {
					want := make([]float64, len(ids))
					got := make([]float64, len(ids))
					wantQ := make([]float64, len(ids))
					gotQ := make([]float64, len(ids))
					portableKernel.sqDistToRows(want, m.Data, d, ids, q)
					portableKernel.sqDistSQ8Rows(wantQ, qm.Codes, qm.D, qm.Min, qm.Scale, ids, q)
					withKernel(t, name, func() {
						SqDistToRows(got, m.Data, d, ids, q)
						SqDistToRowsSQ8(gotQ, qm, ids, q)
					})
					for i := range ids {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("d=%d %s id=%d: %s=%v portable=%v (want bit-exact)", d, label, ids[i], name, got[i], want[i])
						}
						if math.Float64bits(gotQ[i]) != math.Float64bits(wantQ[i]) {
							t.Fatalf("d=%d %s id=%d: SQ8 %s=%v portable=%v (want bit-exact)", d, label, ids[i], name, gotQ[i], wantQ[i])
						}
					}
				}
			}
		})
	}
}

func TestUseKernel(t *testing.T) {
	if err := UseKernel("no-such-kernel"); err == nil {
		t.Fatal("UseKernel accepted an unknown kernel name")
	}
	if err := UseKernel("portable"); err != nil {
		t.Fatalf("UseKernel(portable): %v", err)
	}
	if KernelName() != "portable" {
		t.Fatalf("KernelName=%q after UseKernel(portable)", KernelName())
	}
	// Restore the automatic choice for the rest of the package's tests.
	best := kernels[len(kernels)-1]
	if err := UseKernel(best.name); err != nil {
		t.Fatal(err)
	}
}

func TestNewMatrixOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix accepted an overflowing shape")
		}
	}()
	NewMatrix(math.MaxInt/2, 3)
}
