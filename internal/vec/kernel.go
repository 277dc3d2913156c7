package vec

// Kernel dispatch. The distance kernels (Dot, DotRows, SqDist,
// SqDistToRows and the SQ8 asymmetric scan) have one portable
// implementation plus, per architecture, a SIMD implementation selected
// once at package init:
//
//   - amd64: AVX2 (runtime CPUID/XGETBV detection; requires OS YMM state),
//   - arm64: NEON (always present on arm64),
//   - everything else, or any build with `-tags noasm`: portable only.
//
// Every kernel is BIT-IDENTICAL to the portable code by construction: the
// SIMD bodies replicate the portable 4-lane float64 accumulation exactly
// (lane j accumulates elements j, j+4, j+8, ...; the tail is added to lane
// 0; the final reduction is (s0+s1)+(s2+s3) in that order), and the
// portable code carries explicit float64()/float32() conversions at every
// point where a compiler could otherwise contract a multiply-add into an
// FMA, and no SIMD body fuses one. A query therefore returns
// byte-identical results whether it runs on the SIMD or the portable
// path, which is what lets the equivalence suite (kernel_equiv_test.go)
// demand exact agreement and lets serialized indexes promise identical
// query results across builds.
//
// The binary16 projections (DotRowsF16, DotRowsManyF16) have a contract
// of their own, in float32: lane j of eight accumulates elements j, j+8,
// j+16, ... as acc = acc + float32(h*q), the product of the widened
// direction h and the query element rounded to float32 before the add
// (never fused: a binary16 × float32 product is not exact in float32, so a
// fused add would round differently), the tail is added to lane 0 in
// order, and the lanes reduce as ((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))
// before the sum is widened to float64. The AVX2 bodies need F16C for
// VCVTPH2PS; other machines and arm64 run the portable code.
//
// The selected kernel can be overridden with UseKernel (tests, benchmarks)
// or the BILSH_KERNEL environment variable ("portable", "avx2", "neon") —
// the operational escape hatch when SIMD is suspected, alongside the
// `noasm` build tag which removes the SIMD paths entirely. See
// docs/performance.md.

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// kernel bundles one implementation set. The sqDistToRows and
// sqDistSQ8Rows entries run after the public wrappers validated every
// argument (lengths, dimensions, row ids in range), so implementations
// skip per-row checks.
type kernel struct {
	name          string
	dot           func(a, b []float32) float64
	dotRows       func(out []float64, rows []float32, d int, q []float32)
	sqDist        func(a, b []float32) float64
	sqDistToRows  func(out []float64, data []float32, d int, ids []int32, q []float32)
	sqDistSQ8Rows func(out []float64, codes []uint8, d int, min, scale []float32, ids []int32, q []float32)
	// hammingToRows is the packed-binary batch scan (see binary.go). Arch
	// kernels may leave it nil to inherit the portable implementation,
	// whose OnesCount64 loop already lowers to hardware popcount.
	hammingToRows func(out []float64, words []uint64, wpr int, ids []int32, q []uint64)
	// dotRowsF16 and dotRowsManyF16 are the projections over binary16
	// directions (DotRowsF16, DotRowsManyF16). Kernels without bodies of
	// their own leave them nil and inherit the portable ones.
	dotRowsF16     func(out []float64, rows []uint16, d int, q []float32)
	dotRowsManyF16 func(out []float64, rows []uint16, d int, vs [][]float32)
}

var portableKernel = kernel{
	name:           "portable",
	dot:            dotGeneric,
	dotRows:        dotRowsGeneric,
	sqDist:         sqDistGeneric,
	sqDistToRows:   sqDistToRowsGeneric,
	sqDistSQ8Rows:  sqDistSQ8RowsGeneric,
	hammingToRows:  hammingToRowsGeneric,
	dotRowsF16:     dotRowsF16Generic,
	dotRowsManyF16: dotRowsManyF16Generic,
}

// kernels lists every implementation available in this binary on this CPU,
// portable first, most preferred last.
var kernels = []*kernel{&portableKernel}

// active is the selected kernel. It is written only at init time and by
// UseKernel; UseKernel must not race queries (call it during setup or in
// tests, never while another goroutine computes distances).
var active = &portableKernel

func init() {
	kernels = append(kernels, archKernels()...)
	for _, k := range kernels {
		// Entries an arch kernel does not specialize inherit the portable
		// implementation, so dispatch never hits a nil function.
		if k.hammingToRows == nil {
			k.hammingToRows = hammingToRowsGeneric
		}
		if k.dotRowsF16 == nil {
			k.dotRowsF16 = portableKernel.dotRowsF16
			k.dotRowsManyF16 = portableKernel.dotRowsManyF16
		}
	}
	active = kernels[len(kernels)-1]
	if name := os.Getenv("BILSH_KERNEL"); name != "" {
		// Best effort: an unknown name keeps the automatic choice (the
		// library cannot log, and failing init over an env var is worse).
		_ = UseKernel(name)
	}
}

// KernelName reports the active kernel ("portable", "avx2", "neon").
func KernelName() string { return active.name }

// KernelNames lists the kernels available in this binary on this CPU.
func KernelNames() []string {
	names := make([]string, len(kernels))
	for i, k := range kernels {
		names[i] = k.name
	}
	sort.Strings(names)
	return names
}

// UseKernel selects the kernel by name, overriding the automatic choice.
// All kernels are bit-identical, so this only affects speed; it exists for
// tests, benchmarks and operational escape. Not safe to call concurrently
// with distance computations.
func UseKernel(name string) error {
	for _, k := range kernels {
		if k.name == name {
			active = k
			return nil
		}
	}
	return fmt.Errorf("vec: unknown kernel %q (available: %v)", name, KernelNames())
}

// Dot returns the inner product of a and b, accumulated in float64.
// It panics if the lengths differ: mixing dimensionalities is a programming
// error, not a runtime condition.
//
// The accumulation runs in four independent float64 lanes so the multiplies
// pipeline instead of serializing on one addition chain; the final
// reduction order is fixed, so results are deterministic run to run and
// identical across kernels (though they may differ in the last ulp from a
// single-accumulator sum).
func Dot(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: Dot length mismatch %d != %d", len(a), len(b)))
	}
	return active.dot(a, b)
}

// DotRows computes the inner product of q with every row of the row-major
// matrix rows (row i occupies rows[i*d : (i+1)*d]), writing out[i] —
// bit-identical to Dot(rows[i*d:(i+1)*d], q). This is the projection
// kernel: one call hashes a vector against a table's whole M×D direction
// matrix, and the SIMD kernels run four rows at a time so four independent
// accumulator chains hide the floating-point add latency that a single
// Dot serializes on.
func DotRows(out []float64, rows []float32, d int, q []float32) {
	if len(q) != d {
		panic(fmt.Sprintf("vec: DotRows query dim %d, want %d", len(q), d))
	}
	if len(rows) != len(out)*d {
		panic(fmt.Sprintf("vec: DotRows matrix len %d, want %d rows of dim %d", len(rows), len(out), d))
	}
	active.dotRows(out, rows, d, q)
}

// DotRowsF16 is DotRows over binary16 directions: out[i] is the inner
// product of q with row i of the row-major matrix rows (row i occupies
// rows[i*d : (i+1)*d], each element a binary16 value as HalfToFloat32
// reads it), accumulated in eight float32 lanes (see the contract at the
// top of this file) and widened to float64. It is the query and insert
// projection of a hash family; the AVX2 kernel runs four rows at a time.
func DotRowsF16(out []float64, rows []uint16, d int, q []float32) {
	if len(q) != d {
		panic(fmt.Sprintf("vec: DotRowsF16 query dim %d, want %d", len(q), d))
	}
	if len(rows) != len(out)*d {
		panic(fmt.Sprintf("vec: DotRowsF16 matrix len %d, want %d rows of dim %d", len(rows), len(out), d))
	}
	active.dotRowsF16(out, rows, d, q)
}

// DotRowsManyF16 projects a block of vectors onto one binary16 matrix of m
// = len(rows)/d rows: out[r*m+j] is out[j] of DotRowsF16(·, rows, d,
// vs[r]), bit for bit. It is the build's projection; the AVX2 kernel runs
// a tile of 4 vectors × 2 rows, which widens each direction block once for
// four vectors, and a 1-3 vector remainder and an odd last row take the
// per-row path.
func DotRowsManyF16(out []float64, rows []uint16, d int, vs [][]float32) {
	if d <= 0 || len(rows)%d != 0 {
		panic(fmt.Sprintf("vec: DotRowsManyF16 matrix len %d is not whole rows of dim %d", len(rows), d))
	}
	m := len(rows) / d
	if len(out) != len(vs)*m {
		panic(fmt.Sprintf("vec: DotRowsManyF16 out len %d, want %d vectors × %d rows", len(out), len(vs), m))
	}
	for _, v := range vs {
		if len(v) != d {
			panic(fmt.Sprintf("vec: DotRowsManyF16 vector dim %d, want %d", len(v), d))
		}
	}
	active.dotRowsManyF16(out, rows, d, vs)
}

// SqDist returns the squared Euclidean distance between a and b, with the
// same 4-lane accumulation as Dot.
func SqDist(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vec: SqDist length mismatch %d != %d", len(a), len(b)))
	}
	return active.sqDist(a, b)
}

// SqDistToRows computes the squared distance from q to each listed row of
// the row-major matrix data (row id occupies data[id*d : (id+1)*d]),
// writing the results into out (len(out) must equal len(ids)). Walking an
// id-sorted list streams the matrix in ascending address order, which is
// what lets the short-list scan run at memory bandwidth. Each per-row
// result is bit-identical to SqDist(row, q), so the two are
// interchangeable.
//
// All validation (including every row id's bounds) happens here, once,
// before the scan: the kernels run check-free inner loops.
func SqDistToRows(out []float64, data []float32, d int, ids []int32, q []float32) {
	if len(out) != len(ids) {
		panic(fmt.Sprintf("vec: SqDistToRows out len %d, want %d", len(out), len(ids)))
	}
	if len(q) != d {
		panic(fmt.Sprintf("vec: SqDistToRows query dim %d, want %d", len(q), d))
	}
	if d <= 0 {
		panic(fmt.Sprintf("vec: SqDistToRows dim %d not positive", d))
	}
	maxRow := int32(len(data) / d)
	for _, id := range ids {
		if id < 0 || id >= maxRow {
			panic(fmt.Sprintf("vec: SqDistToRows row %d outside matrix of %d rows", id, maxRow))
		}
	}
	active.sqDistToRows(out, data, d, ids, q)
}

// Dist returns the Euclidean distance between a and b.
func Dist(a, b []float32) float64 { return math.Sqrt(SqDist(a, b)) }

// dotGeneric is the portable Dot kernel: 4-way unrolled with independent
// accumulators. float64(x)*float64(y) of two float32 values is exact (a
// 24×24-bit product fits float64's 53-bit mantissa), so there is no
// contraction hazard here — mul+add and FMA round identically.
func dotGeneric(a, b []float32) float64 {
	b = b[:len(a)] // hoist the bounds check out of the loop
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += float64(a[i]) * float64(b[i])
		s1 += float64(a[i+1]) * float64(b[i+1])
		s2 += float64(a[i+2]) * float64(b[i+2])
		s3 += float64(a[i+3]) * float64(b[i+3])
	}
	for ; i < len(a); i++ {
		s0 += float64(a[i]) * float64(b[i])
	}
	return (s0 + s1) + (s2 + s3)
}

func dotRowsGeneric(out []float64, rows []float32, d int, q []float32) {
	for i := range out {
		out[i] = dotGeneric(rows[i*d:(i+1)*d:(i+1)*d], q)
	}
}

// dotF16Generic is the portable binary16 projection of one row. The
// explicit float32() conversions of every product are rounding barriers:
// without them a compiler may fuse the multiply into the add.
func dotF16Generic(h []uint16, q []float32) float32 {
	q = q[:len(h)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= len(h); i += 8 {
		s0 = s0 + float32(HalfToFloat32(h[i])*q[i])
		s1 = s1 + float32(HalfToFloat32(h[i+1])*q[i+1])
		s2 = s2 + float32(HalfToFloat32(h[i+2])*q[i+2])
		s3 = s3 + float32(HalfToFloat32(h[i+3])*q[i+3])
		s4 = s4 + float32(HalfToFloat32(h[i+4])*q[i+4])
		s5 = s5 + float32(HalfToFloat32(h[i+5])*q[i+5])
		s6 = s6 + float32(HalfToFloat32(h[i+6])*q[i+6])
		s7 = s7 + float32(HalfToFloat32(h[i+7])*q[i+7])
	}
	return f16Finish([8]float32{s0, s1, s2, s3, s4, s5, s6, s7}, h[i:], q[i:])
}

// f16Finish completes one chain of a binary16 projection from its eight
// lanes: the elements past the last whole block (h and q, in order) added
// to lane 0, then the fixed reduction.
func f16Finish(l [8]float32, h []uint16, q []float32) float32 {
	s0 := l[0]
	for i, x := range h {
		s0 = s0 + float32(HalfToFloat32(x)*q[i])
	}
	return ((s0 + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

func dotRowsF16Generic(out []float64, rows []uint16, d int, q []float32) {
	for i := range out {
		out[i] = float64(dotF16Generic(rows[i*d:(i+1)*d:(i+1)*d], q))
	}
}

func dotRowsManyF16Generic(out []float64, rows []uint16, d int, vs [][]float32) {
	m := len(rows) / d
	for r, v := range vs {
		dotRowsF16Generic(out[r*m:(r+1)*m:(r+1)*m], rows, d, v)
	}
}

// sqDistGeneric is the portable SqDist kernel. The float64(d*d)
// conversions are semantically redundant but are explicit rounding
// barriers: the Go spec lets a compiler contract `s += d*d` into an FMA
// (and does on arm64), which would round differently from the SIMD
// kernels' separate multiply and add. The conversion pins mul-then-add
// rounding on every architecture.
func sqDistGeneric(a, b []float32) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := float64(a[i]) - float64(b[i])
		d1 := float64(a[i+1]) - float64(b[i+1])
		d2 := float64(a[i+2]) - float64(b[i+2])
		d3 := float64(a[i+3]) - float64(b[i+3])
		s0 += float64(d0 * d0)
		s1 += float64(d1 * d1)
		s2 += float64(d2 * d2)
		s3 += float64(d3 * d3)
	}
	for ; i < len(a); i++ {
		d := float64(a[i]) - float64(b[i])
		s0 += float64(d * d)
	}
	return (s0 + s1) + (s2 + s3)
}

func sqDistToRowsGeneric(out []float64, data []float32, d int, ids []int32, q []float32) {
	for i, id := range ids {
		off := int(id) * d
		out[i] = sqDistGeneric(data[off:off+d:off+d], q)
	}
}
