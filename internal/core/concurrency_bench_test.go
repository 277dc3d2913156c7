package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bilsh/internal/xrand"
)

// readLatencies records per-read wall-clock samples so the benchmark can
// report percentiles rather than only the blended mean (ns/op mixes cheap
// reads with expensive write pairs, and on small machines a background
// compaction can skew the mean without touching the typical read).
type readLatencies struct {
	next    atomic.Int64
	samples []int64
}

func newReadLatencies() *readLatencies {
	return &readLatencies{samples: make([]int64, 1<<20)}
}

func (r *readLatencies) add(d time.Duration) {
	if i := r.next.Add(1) - 1; int(i) < len(r.samples) {
		r.samples[i] = int64(d)
	}
}

// report emits read-p50-ns, read-p99-ns and read-mean-ns.
func (r *readLatencies) report(b *testing.B) {
	n := int(r.next.Load())
	if n > len(r.samples) {
		n = len(r.samples)
	}
	if n == 0 {
		return
	}
	s := r.samples[:n]
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum int64
	for _, v := range s {
		sum += v
	}
	b.ReportMetric(float64(s[n/2]), "read-p50-ns")
	b.ReportMetric(float64(s[n*99/100]), "read-p99-ns")
	b.ReportMetric(float64(sum)/float64(n), "read-mean-ns")
}

var readWriteMixes = []struct {
	name        string
	writePerMil int // writes per 1000 ops
}{
	{"readonly", 0},
	{"mix95-5", 50},
	{"mix50-50", 500},
}

// BenchmarkMixedReadWrite measures query latency under concurrent mixed
// workloads (make bench-concurrency; see docs/performance.md). A write op
// is an insert immediately followed by a delete of the inserted id, so the
// index size stays steady for any b.N. The read-only case is the baseline
// the mixed cases are judged against: with snapshot reads, a small write
// fraction should barely move the typical read (read-p50-ns).
func BenchmarkMixedReadWrite(b *testing.B) {
	for _, mix := range readWriteMixes {
		b.Run(mix.name, func(b *testing.B) {
			ix, qs := benchIndex(b, ProbeSingle)
			ix.ConfigureDynamic(1024, 4)
			lat := newReadLatencies()
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := xrand.New(7919 * seq.Add(1))
				for pb.Next() {
					if mix.writePerMil > 0 && rng.Intn(1000) < mix.writePerMil {
						id, err := ix.Insert(qs.Row(rng.Intn(qs.N)))
						if err != nil {
							b.Error(err)
							return
						}
						ix.Delete(id)
					} else {
						t0 := time.Now()
						ix.Query(qs.Row(rng.Intn(qs.N)), 10)
						lat.add(time.Since(t0))
					}
				}
			})
			b.StopTimer()
			lat.report(b)
		})
	}
}

// BenchmarkRWMutexMixedReadWrite is the comparison baseline: the same
// workloads against the same index but serialized through one global
// RWMutex, the pre-snapshot concurrency model. The gap against
// BenchmarkMixedReadWrite is what the snapshot refactor buys; it widens
// with core count, since RLock/RUnlock bounce a cache line that snapshot
// loads never touch.
func BenchmarkRWMutexMixedReadWrite(b *testing.B) {
	for _, mix := range readWriteMixes {
		if mix.writePerMil == 0 {
			continue // identical to MixedReadWrite/readonly plus lock noise
		}
		b.Run(mix.name, func(b *testing.B) {
			ix, qs := benchIndex(b, ProbeSingle)
			ix.ConfigureDynamic(1024, 4)
			lat := newReadLatencies()
			var mu sync.RWMutex
			var seq atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := xrand.New(6271 * seq.Add(1))
				for pb.Next() {
					if rng.Intn(1000) < mix.writePerMil {
						mu.Lock()
						id, err := ix.Insert(qs.Row(rng.Intn(qs.N)))
						if err == nil {
							ix.Delete(id)
						}
						mu.Unlock()
						if err != nil {
							b.Error(err)
							return
						}
					} else {
						t0 := time.Now()
						mu.RLock()
						ix.Query(qs.Row(rng.Intn(qs.N)), 10)
						mu.RUnlock()
						lat.add(time.Since(t0))
					}
				}
			})
			b.StopTimer()
			lat.report(b)
		})
	}
}

// BenchmarkQueryDuringCompact measures reads that overlap a background
// compaction and nothing else: each iteration leaves one insert and one
// delete to fold, starts CompactAsync and queries from one goroutine until
// the compaction has finished. The rebuild hashes the groups on up to
// GOMAXPROCS goroutines, so on a machine with no idle core it competes
// with the reader for a shorter time instead of leaving it a core for a
// longer one; read-p50-ns and read-p99-ns show what that costs a query,
// ns/op how long one compaction takes with a reader beside it.
func BenchmarkQueryDuringCompact(b *testing.B) {
	ix, qs := benchIndex(b, ProbeSingle)
	lat := newReadLatencies()
	rng := xrand.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, err := ix.Insert(qs.Row(i % qs.N))
		if err != nil {
			b.Fatal(err)
		}
		ix.Delete(id)
		if err := ix.CompactAsync(); err != nil {
			b.Fatal(err)
		}
		for !ix.compactMu.TryLock() { // held until the compaction is done
			t0 := time.Now()
			ix.Query(qs.Row(rng.Intn(qs.N)), 10)
			lat.add(time.Since(t0))
		}
		ix.compactMu.Unlock()
	}
	b.StopTimer()
	lat.report(b)
}
