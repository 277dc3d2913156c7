//go:build (amd64 || arm64) && !noasm

package vec

import "unsafe"

// Shared Go-side wrappers around the per-architecture assembly bodies.
//
// The assembly computes only the aligned vector body: `blocks` groups of 4
// elements, accumulated into float64 lanes that mirror the portable
// kernel's four scalar accumulators exactly (lane j holds elements j, j+4,
// ...). The wrappers here do everything else in Go — the scalar tail
// (added to lane 0, matching the portable tail loop) and the fixed
// (s0+s1)+(s2+s3) reduction. Keeping tails and reductions in shared Go
// code is what makes bit-equality with the portable kernel a structural
// property instead of something each .s file must re-prove, and it keeps
// the assembly to straight-line counted loops.
//
// Each architecture provides dotBody / dot4Body / sqDistBody / sqDist2Body
// / sq8Body / sq82Body as direct (statically resolvable) calls into its
// assembly stubs, plus the prefetch2 and prefetchN stubs. Direct calls matter: the stubs
// are marked //go:noescape, and the compiler only honors that at a static
// call site. Routing the bodies
// through func values (an earlier draft used a struct of func fields)
// hides the annotation, so every `&acc` below escapes and each distance
// call heap-allocates its accumulator — which the query path's alloc pins
// forbid.
//
// Body contract: acc lanes are OVERWRITTEN by the body (not accumulated
// into), and bodies must only be called with blocks > 0.
//
// Row scans process candidate rows in pairs: the paired bodies maintain
// two independent accumulator chains, which hides the floating-point add
// latency that a single chain serializes on and buys most of the SIMD
// speedup for d≥64 rows (the conversions of q are also shared between the
// two rows). DotRows does the same four rows at a time (dot4Body): the
// rows of a projection matrix are contiguous, so the body takes the first
// row and the byte stride.
//
// Row scans also prefetch. A candidate list is sparse (a few percent of
// the rows, in ascending id order), so every row starts with a cache miss
// that the hardware stream prefetcher cannot predict and the out-of-order
// window cannot overlap with more than the next row or two. The scans
// therefore issue software prefetches (prefetch2: PREFETCHT0 on amd64,
// PRFM PLDL1KEEP on arm64) for the rows prefetchRows positions ahead in
// the id list. Prefetches never fault and never change a result; every
// address still lies inside a row the public wrapper validated.

const (
	// prefetchRows is how far ahead of the pair being scanned, in id-list
	// positions, rows are prefetched. Chosen on BenchmarkSqDistToRowsSparse
	// (1600 sorted random rows of a 60k×128 matrix, 2700 of 100k×32): scan
	// time falls steeply up to 4, is flat within noise from 6 to 32, and 8
	// is the smallest distance well inside the plateau (a short candidate
	// list gets no prefetch for its first prefetchRows rows). The sweep is
	// tabulated in docs/performance.md.
	prefetchRows = 8
	// prefetchMaxBytes caps the prefetched prefix of a row at 8 cache
	// lines. Within a longer row (d = 960 is 60 lines) the hardware
	// streamer picks up after the first lines, and prefetching whole long
	// rows that far ahead would evict lines before they are used.
	prefetchMaxBytes = 512
)

// PrefetchBlock hints that the cache line holding each address of ps is
// about to be read, in one call into the assembly stub, so a caller with
// many hints pays one call, not one per address. It is for callers outside
// this package that know a block of dependent random loads in advance (the
// bucket index's block lookup); it never faults, changes no result, and is
// a no-op where there is no assembly.
func PrefetchBlock(ps []unsafe.Pointer) {
	if len(ps) > 0 {
		prefetchN(&ps[0], len(ps))
	}
}

// newSIMDKernel builds the architecture's kernel under its display name.
func newSIMDKernel(name string) *kernel {
	return &kernel{
		name:          name,
		dot:           simdDot,
		dotRows:       simdDotRows,
		sqDist:        simdSqDist,
		sqDistToRows:  simdSqDistToRows,
		sqDistSQ8Rows: simdSqDistSQ8Rows,
	}
}

func simdDot(x, y []float32) float64 {
	n := len(x)
	blocks := n >> 2
	var acc [4]float64
	if blocks > 0 {
		dotBody(&x[0], &y[0], blocks, &acc)
	}
	s0 := acc[0]
	for i := blocks << 2; i < n; i++ {
		s0 += float64(x[i]) * float64(y[i])
	}
	return (s0 + acc[1]) + (acc[2] + acc[3])
}

func simdDotRows(out []float64, rows []float32, d int, q []float32) {
	blocks := d >> 2
	tail := blocks << 2
	var acc [16]float64
	i := 0
	for ; i+4 <= len(out); i += 4 {
		base := i * d
		if blocks > 0 {
			dot4Body(&rows[base], &q[0], d*4, blocks, &acc)
		} else {
			acc = [16]float64{}
		}
		for r := 0; r < 4; r++ {
			a := acc[4*r : 4*r+4 : 4*r+4]
			s0 := a[0]
			row := rows[base+r*d : base+(r+1)*d]
			for j := tail; j < d; j++ {
				s0 += float64(row[j]) * float64(q[j])
			}
			out[i+r] = (s0 + a[1]) + (a[2] + a[3])
		}
	}
	for ; i < len(out); i++ {
		out[i] = simdDot(rows[i*d:(i+1)*d], q)
	}
}

func simdSqDist(x, y []float32) float64 {
	n := len(x)
	blocks := n >> 2
	var acc [4]float64
	if blocks > 0 {
		sqDistBody(&x[0], &y[0], blocks, &acc)
	}
	s0 := acc[0]
	for i := blocks << 2; i < n; i++ {
		d := float64(x[i]) - float64(y[i])
		s0 += float64(d * d)
	}
	return (s0 + acc[1]) + (acc[2] + acc[3])
}

func simdSqDistToRows(out []float64, data []float32, d int, ids []int32, q []float32) {
	blocks := d >> 2
	tail := blocks << 2
	pf := min(d*4, prefetchMaxBytes)
	var acc [8]float64
	i := 0
	for ; i+2 <= len(ids); i += 2 {
		if j := i + prefetchRows; j+1 < len(ids) {
			prefetch2(unsafe.Pointer(&data[int(ids[j])*d]), unsafe.Pointer(&data[int(ids[j+1])*d]), pf)
		}
		o0 := int(ids[i]) * d
		o1 := int(ids[i+1]) * d
		if blocks > 0 {
			sqDist2Body(&data[o0], &data[o1], &q[0], blocks, &acc)
		} else {
			acc = [8]float64{}
		}
		s0, s4 := acc[0], acc[4]
		for j := tail; j < d; j++ {
			qv := float64(q[j])
			d0 := float64(data[o0+j]) - qv
			s0 += float64(d0 * d0)
			d1 := float64(data[o1+j]) - qv
			s4 += float64(d1 * d1)
		}
		out[i] = (s0 + acc[1]) + (acc[2] + acc[3])
		out[i+1] = (s4 + acc[5]) + (acc[6] + acc[7])
	}
	if i < len(ids) {
		off := int(ids[i]) * d
		out[i] = simdSqDist(data[off:off+d:off+d], q)
	}
}

func simdSqDistSQ8One(c []uint8, q, min, scale []float32) float64 {
	d := len(q)
	blocks := d >> 2
	var acc [4]float64
	if blocks > 0 {
		sq8Body(&c[0], &q[0], &min[0], &scale[0], blocks, &acc)
	}
	s0 := acc[0]
	for j := blocks << 2; j < d; j++ {
		v := min[j] + float32(scale[j]*float32(c[j]))
		dj := float64(v) - float64(q[j])
		s0 += float64(dj * dj)
	}
	return (s0 + acc[1]) + (acc[2] + acc[3])
}

func simdSqDistSQ8Rows(out []float64, codes []uint8, d int, min, scale []float32, ids []int32, q []float32) {
	blocks := d >> 2
	tail := blocks << 2
	pf := d // bytes per code row; `min` is a parameter here
	if pf > prefetchMaxBytes {
		pf = prefetchMaxBytes
	}
	var acc [8]float64
	i := 0
	for ; i+2 <= len(ids); i += 2 {
		if j := i + prefetchRows; j+1 < len(ids) {
			prefetch2(unsafe.Pointer(&codes[int(ids[j])*d]), unsafe.Pointer(&codes[int(ids[j+1])*d]), pf)
		}
		o0 := int(ids[i]) * d
		o1 := int(ids[i+1]) * d
		if blocks > 0 {
			sq82Body(&codes[o0], &codes[o1], &q[0], &min[0], &scale[0], blocks, &acc)
		} else {
			acc = [8]float64{}
		}
		s0, s4 := acc[0], acc[4]
		for j := tail; j < d; j++ {
			qv := float64(q[j])
			v0 := min[j] + float32(scale[j]*float32(codes[o0+j]))
			d0 := float64(v0) - qv
			s0 += float64(d0 * d0)
			v1 := min[j] + float32(scale[j]*float32(codes[o1+j]))
			d1 := float64(v1) - qv
			s4 += float64(d1 * d1)
		}
		out[i] = (s0 + acc[1]) + (acc[2] + acc[3])
		out[i+1] = (s4 + acc[5]) + (acc[6] + acc[7])
	}
	if i < len(ids) {
		off := int(ids[i]) * d
		out[i] = simdSqDistSQ8One(codes[off:off+d:off+d], q, min, scale)
	}
}
