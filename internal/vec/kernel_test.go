package vec

import (
	"math"
	"testing"
)

// The unrolled kernels accumulate in four independent float64 lanes, so
// their summation order differs from a naive scalar loop and results may
// differ by a few ulps. These tests verify the kernels stay within that
// tolerance of the scalar reference at every length across the unroll
// boundaries, and that SqDistToRows is bit-identical to per-row SqDist
// (the property the rank-path equivalence depends on).

func naiveDot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

func naiveSqDist(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

func fill(n int, seed uint32) []float32 {
	xs := make([]float32, n)
	state := seed
	for i := range xs {
		// xorshift32: cheap deterministic values spanning sign and scale.
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		xs[i] = float32(int32(state)) / float32(1<<28)
	}
	return xs
}

func relClose(got, want float64) bool {
	diff := math.Abs(got - want)
	return diff <= 1e-9*math.Max(1, math.Max(math.Abs(got), math.Abs(want)))
}

func TestDotMatchesNaiveAllLengths(t *testing.T) {
	for n := 0; n <= 70; n++ {
		a, b := fill(n, 1+uint32(n)), fill(n, 1000+uint32(n))
		got, want := Dot(a, b), naiveDot(a, b)
		if !relClose(got, want) {
			t.Fatalf("n=%d: Dot=%v naive=%v", n, got, want)
		}
	}
}

func TestSqDistMatchesNaiveAllLengths(t *testing.T) {
	for n := 0; n <= 70; n++ {
		a, b := fill(n, 2+uint32(n)), fill(n, 2000+uint32(n))
		got, want := SqDist(a, b), naiveSqDist(a, b)
		if !relClose(got, want) {
			t.Fatalf("n=%d: SqDist=%v naive=%v", n, got, want)
		}
		if got < 0 {
			t.Fatalf("n=%d: SqDist=%v negative", n, got)
		}
	}
}

func TestSqDistToRowsMatchesSqDistExactly(t *testing.T) {
	for _, d := range []int{1, 3, 8, 17, 64} {
		const rows = 23
		m := NewMatrix(rows, d)
		copy(m.Data, fill(rows*d, 77))
		q := fill(d, 99)
		ids := []int32{0, 5, 5, 1, 22, 13, 7}
		out := make([]float64, len(ids))
		SqDistToRows(out, m.Data, d, ids, q)
		for i, id := range ids {
			want := SqDist(m.Row(int(id)), q)
			if out[i] != want {
				t.Fatalf("d=%d row %d: SqDistToRows=%v SqDist=%v (must be bit-identical)", d, id, out[i], want)
			}
		}
	}
}

func benchVecs(n int) ([]float32, []float32) {
	return fill(n, 11), fill(n, 13)
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(itoa(n), func(b *testing.B) {
			x, y := benchVecs(n)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += Dot(x, y)
			}
			_ = sink
		})
	}
}

func BenchmarkSqDist(b *testing.B) {
	for _, n := range []int{16, 64, 128} {
		b.Run(itoa(n), func(b *testing.B) {
			x, y := benchVecs(n)
			var sink float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += SqDist(x, y)
			}
			_ = sink
		})
	}
}

// forEachKernel runs f as a sub-benchmark under every registered kernel,
// reporting bytes per op as MB/s.
func forEachKernel(b *testing.B, prefix string, bytes int64, f func(b *testing.B)) {
	for _, kern := range KernelNames() {
		b.Run(prefix+"/"+kern, func(b *testing.B) {
			prev := KernelName()
			if err := UseKernel(kern); err != nil {
				b.Fatal(err)
			}
			defer UseKernel(prev)
			b.SetBytes(bytes)
			b.ResetTimer()
			f(b)
		})
	}
}

func denseIDs(rows int) []int32 {
	ids := make([]int32, rows)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// BenchmarkSqDistToRows sweeps dimension (SIFT-ish 128 and the paper's
// GIST 960) × row count (cache-resident 1k, memory-bound 64k) × kernel
// over the DENSE id list 0..rows-1, which streams the matrix: the hardware
// prefetcher hides every miss, so this is the kernels' arithmetic ceiling,
// not what a query sees (see BenchmarkSqDistToRowsSparse). MB/s counts the
// float32 row bytes streamed per scan.
func BenchmarkSqDistToRows(b *testing.B) {
	for _, d := range []int{128, 960} {
		for _, rows := range []int{1 << 10, 1 << 16} {
			m := NewMatrix(rows, d)
			copy(m.Data, fill(rows*d, 21))
			q := fill(d, 23)
			ids := denseIDs(rows)
			out := make([]float64, rows)
			forEachKernel(b, "d"+itoa(d)+"/rows"+itoa(rows), int64(rows)*int64(d)*4, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					SqDistToRows(out, m.Data, d, ids, q)
				}
			})
		}
	}
}

// BenchmarkSqDistToRowsSQ8 mirrors the float32 sweep over the quantized
// store; bytes/op counts code bytes, so MB/s numbers are comparable as
// "rows scanned" only after dividing by 4.
func BenchmarkSqDistToRowsSQ8(b *testing.B) {
	for _, d := range []int{128, 960} {
		for _, rows := range []int{1 << 10, 1 << 16} {
			m := NewMatrix(rows, d)
			copy(m.Data, fill(rows*d, 21))
			qm := QuantizeSQ8(m)
			q := fill(d, 23)
			ids := denseIDs(rows)
			out := make([]float64, rows)
			forEachKernel(b, "d"+itoa(d)+"/rows"+itoa(rows), int64(rows)*int64(d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					SqDistToRowsSQ8(out, qm, ids, q)
				}
			})
		}
	}
}

// sparseShapes are the candidate lists real queries hand the row scans
// (bench/ workloads scan-60k-d128, probe-100k-d32, hash-10k-d960): a
// sorted random subset of about 1 row in 37 — every row a cache miss no
// stream prefetcher predicts. d=960 is the bypass case: rows are 60 cache
// lines, so the per-row miss is amortized and prefetch should not matter.
var sparseShapes = []struct{ rows, d, ids int }{
	{60000, 128, 1600},
	{100000, 32, 2700},
	{10000, 960, 220},
}

// sparseIDSets draws `sets` sorted random k-subsets of 0..rows-1
// (selection sampling). Benchmarks cycle through them so the scanned rows
// are out of cache when their turn comes, like a fresh query's.
func sparseIDSets(rows, k, sets int, seed uint32) [][]int32 {
	state := seed
	out := make([][]int32, sets)
	for s := range out {
		ids := make([]int32, 0, k)
		for i := 0; len(ids) < k; i++ {
			state ^= state << 13
			state ^= state >> 17
			state ^= state << 5
			if uint64(state)*uint64(rows-i) < uint64(k-len(ids))<<32 {
				ids = append(ids, int32(i))
			}
		}
		out[s] = ids
	}
	return out
}

// BenchmarkSqDistToRowsSparse is the short-list scan as a query runs it;
// one op is one candidate list, MB/s counts the row bytes it touches.
func BenchmarkSqDistToRowsSparse(b *testing.B) {
	for _, sh := range sparseShapes {
		m := NewMatrix(sh.rows, sh.d)
		copy(m.Data, fill(sh.rows*sh.d, 21))
		q := fill(sh.d, 23)
		sets := sparseIDSets(sh.rows, sh.ids, 16, 29)
		out := make([]float64, sh.ids)
		forEachKernel(b, "d"+itoa(sh.d)+"/rows"+itoa(sh.rows)+"/ids"+itoa(sh.ids), int64(sh.ids)*int64(sh.d)*4, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SqDistToRows(out, m.Data, sh.d, sets[i%len(sets)], q)
			}
		})
	}
}

// BenchmarkSqDistToRowsSQ8Sparse is the sparse scan over the SQ8 store.
func BenchmarkSqDistToRowsSQ8Sparse(b *testing.B) {
	for _, sh := range sparseShapes {
		m := NewMatrix(sh.rows, sh.d)
		copy(m.Data, fill(sh.rows*sh.d, 21))
		qm := QuantizeSQ8(m)
		q := fill(sh.d, 23)
		sets := sparseIDSets(sh.rows, sh.ids, 16, 29)
		out := make([]float64, sh.ids)
		forEachKernel(b, "d"+itoa(sh.d)+"/rows"+itoa(sh.rows)+"/ids"+itoa(sh.ids), int64(sh.ids)*int64(sh.d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SqDistToRowsSQ8(out, qm, sets[i%len(sets)], q)
			}
		})
	}
}

// BenchmarkDotRows is the projection kernel at GIST scale (M=16 hash
// functions × d=960): "hot" re-projects onto one table (the Build inner
// loop, which hashes every row against the same table), "cycled" walks 16
// groups × 32 tables = 31 MB of direction matrices, one table per op, the
// way successive queries do. "perrow" is the per-row Dot loop DotRows
// replaced, for the kernel-vs-kernel delta.
func BenchmarkDotRows(b *testing.B) {
	const m, d, tables = 16, 960, 16 * 32
	q := fill(d, 23)
	out := make([]float64, m)
	all := fill(tables*m*d, 31)
	forEachKernel(b, "hot", m*d*4, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotRows(out, all[:m*d], d, q)
		}
	})
	forEachKernel(b, "hot-perrow", m*d*4, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < m; r++ {
				out[r] = Dot(all[r*d:(r+1)*d], q)
			}
		}
	})
	forEachKernel(b, "cycled", m*d*4, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := i % tables
			DotRows(out, all[t*m*d:(t+1)*m*d], d, q)
		}
	})
}

// BenchmarkDotRowsF16 is the projection over binary16 directions on the
// shape of hash-10k-d960 (M = 16, d = 960): one table's matrix hot and
// cycled through 32 tables' worth, as BenchmarkDotRows runs the float32
// kernel, and "query": one query's whole projection, the 32 tables called
// in turn as the probe loop calls Family.Project, beside the same
// pattern over float32 directions ("query-f32"). MB/s counts the
// direction bytes each side reads.
func BenchmarkDotRowsF16(b *testing.B) {
	const m, d, tables = 16, 960, 32
	q := fill(d, 23)
	out := make([]float64, m)
	all32 := fill(tables*m*d, 31)
	all := make([]uint16, len(all32))
	for i, x := range all32 {
		all[i] = HalfFromFloat32(x)
	}
	forEachKernel(b, "hot", m*d*2, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotRowsF16(out, all[:m*d], d, q)
		}
	})
	forEachKernel(b, "cycled", m*d*2, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := i % tables
			DotRowsF16(out, all[t*m*d:(t+1)*m*d], d, q)
		}
	})
	forEachKernel(b, "query", tables*m*d*2, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < tables; t++ {
				DotRowsF16(out, all[t*m*d:(t+1)*m*d], d, q)
			}
		}
	})
	forEachKernel(b, "query-f32", tables*m*d*4, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for t := 0; t < tables; t++ {
				DotRows(out, all32[t*m*d:(t+1)*m*d], d, q)
			}
		}
	})
}

// BenchmarkDotRowsManyF16 is BenchmarkDotRowsMany over binary16
// directions: the build's tile against four DotRowsF16 calls.
func BenchmarkDotRowsManyF16(b *testing.B) {
	const m, d, n = 16, 960, 4
	dirs := make([]uint16, m*d)
	for i, x := range fill(m*d, 31) {
		dirs[i] = HalfFromFloat32(x)
	}
	data := fill(n*d, 37)
	vs := make([][]float32, n)
	for r := range vs {
		vs[r] = data[r*d : (r+1)*d]
	}
	out := make([]float64, n*m)
	forEachKernel(b, "block", n*m*d*2, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DotRowsManyF16(out, dirs, d, vs)
		}
	})
	forEachKernel(b, "per-vector", n*m*d*2, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r, v := range vs {
				DotRowsF16(out[r*m:(r+1)*m], dirs, d, v)
			}
		}
	})
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
