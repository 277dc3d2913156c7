package wire

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// The bulk paths must write the bytes, and read back the values, that the
// per-element calls do. Lengths cross the chunk buffer's and the read
// buffer's boundaries, and the readers run over a plain io.Reader (one
// byte per Read) as well as a sized one.

var bulkLengths = []int{0, 1, 3, 1023, 1024, 1025, chunkSize/8 - 1, chunkSize / 8, chunkSize/4 + 1, 3*chunkSize/4 + 5}

// oneByteReader hands out its input a byte per Read, so every buffered
// window a reader decodes from ends as early as it can.
type oneByteReader struct{ b []byte }

func (o *oneByteReader) Read(p []byte) (int, error) {
	if len(o.b) == 0 {
		return 0, io.EOF
	}
	if len(p) == 0 {
		return 0, nil
	}
	p[0], o.b = o.b[0], o.b[1:]
	return 1, nil
}

func encode(t *testing.T, fill func(w *Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	fill(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() != int64(buf.Len()) {
		t.Fatalf("BytesWritten %d, wrote %d", w.BytesWritten(), buf.Len())
	}
	return buf.Bytes()
}

// readers returns a sized reader and a byte-at-a-time one over b.
func readers(b []byte) map[string]*Reader {
	return map[string]*Reader{
		"sized":      NewReader(bytes.NewReader(b)),
		"byte-reads": NewReader(&oneByteReader{b: slices.Clone(b)}),
	}
}

func TestBulkMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for _, n := range bulkLengths {
		f32 := make([]float32, n)
		f64 := make([]float64, n)
		ints := make([]int, n)
		i32s := make([]int32, n)
		words := make([]uint64, n)
		for i := range n {
			f32[i] = math.Float32frombits(uint32(rng.Uint64()))
			f64[i] = math.Float64frombits(rng.Uint64())
			// Varints of every length, 1 to 10 bytes.
			ints[i] = int(int64(rng.Uint64()) >> (rng.IntN(64)))
			i32s[i] = int32(ints[i])
			words[i] = rng.Uint64()
		}
		bulk := encode(t, func(w *Writer) {
			w.F32Block(f32)
			w.F32s(f32)
			w.F64s(f64)
			w.Ints(ints)
			w.I32s(i32s)
			w.Words(words)
		})
		elementwise := encode(t, func(w *Writer) {
			for _, x := range f32 {
				w.F32(x)
			}
			w.U64(uint64(n))
			for _, x := range f32 {
				w.F32(x)
			}
			w.U64(uint64(n))
			for _, x := range f64 {
				w.F64(x)
			}
			w.U64(uint64(n))
			for _, x := range ints {
				w.I64(int64(x))
			}
			w.U64(uint64(n))
			for _, x := range i32s {
				w.I64(int64(x))
			}
			w.U64(uint64(n))
			for _, x := range words {
				w.write([]byte{byte(x), byte(x >> 8), byte(x >> 16), byte(x >> 24),
					byte(x >> 32), byte(x >> 40), byte(x >> 48), byte(x >> 56)})
			}
		})
		if !bytes.Equal(bulk, elementwise) {
			t.Fatalf("n=%d: bulk writers' bytes differ from per-element writes", n)
		}
		for name, r := range readers(bulk) {
			block := make([]float32, n)
			r.F32Block(block)
			got32, got64, gotInts, gotI32s, gotWords := r.F32s(), r.F64s(), r.Ints(), r.I32s(), r.Words()
			if err := r.Err(); err != nil {
				t.Fatalf("n=%d %s: %v", n, name, err)
			}
			bits32 := func(xs []float32) []uint32 {
				out := make([]uint32, len(xs))
				for i, x := range xs {
					out[i] = math.Float32bits(x)
				}
				return out
			}
			bits64 := func(xs []float64) []uint64 {
				out := make([]uint64, len(xs))
				for i, x := range xs {
					out[i] = math.Float64bits(x)
				}
				return out
			}
			if !slices.Equal(bits32(block), bits32(f32)) || !slices.Equal(bits32(got32), bits32(f32)) ||
				!slices.Equal(bits64(got64), bits64(f64)) || !slices.Equal(gotInts, ints) ||
				!slices.Equal(gotI32s, i32s) || !slices.Equal(gotWords, words) {
				t.Fatalf("n=%d %s: bulk readers decoded different values", n, name)
			}
		}
	}
}

// TestVarintsTruncatedAnywhere cuts an Ints section at every byte of its
// last few varints, and corrupts it into an overlong varint: the bulk
// reader must fail exactly where per-element reads fail.
func TestVarintsTruncatedAnywhere(t *testing.T) {
	xs := make([]int, 1500)
	for i := range xs {
		xs[i] = (i * 7919) << (i % 50)
	}
	full := encode(t, func(w *Writer) { w.Ints(xs) })
	for cut := len(full) - 40; cut < len(full); cut++ {
		for name, r := range readers(full[:cut]) {
			if got := r.Ints(); r.Err() == nil {
				t.Fatalf("%s: cut at %d of %d decoded %d ints without error", name, cut, len(full), len(got))
			}
		}
	}
	overlong := append(encode(t, func(w *Writer) { w.U64(2); w.I64(5) }), bytes.Repeat([]byte{0xff}, 11)...)
	for name, r := range readers(overlong) {
		r.Ints()
		if r.Err() == nil || !strings.Contains(r.Err().Error(), "overflows") {
			t.Fatalf("%s: overlong varint: err %v", name, r.Err())
		}
	}
}

func TestStringsShareOneArena(t *testing.T) {
	keys := []string{"", "a", "key-1", strings.Repeat("x", 5000), "key-2", ""}
	for name, r := range readers(encode(t, func(w *Writer) { w.Strings(keys) })) {
		got := r.Strings()
		if r.Err() != nil || !slices.Equal(got, keys) {
			t.Fatalf("%s: decoded %q (err %v)", name, got, r.Err())
		}
	}
	// 100 keys of one length, as a table's are, in two copies of the
	// section: AllocsPerRun reads one to warm up.
	keys = make([]string, 100)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%012d", i)
	}
	section := encode(t, func(w *Writer) { w.Strings(keys) })
	r := NewReader(bytes.NewReader(append(slices.Clone(section), section...)))
	var got []string
	if allocs := testing.AllocsPerRun(1, func() { got = r.Strings() }); allocs > 2 {
		t.Fatalf("Strings of 100 keys made %v allocations, want 2: the slice and one arena", allocs)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("decoded %q", got)
	}
}

// TestWriterAllocs pins the writers that used to allocate per call: the
// scalars and the bulk paths reuse the writer's buffers.
func TestWriterAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	xs := make([]float32, 3*chunkSize/4)
	w.F32Block(xs) // allocates the chunk buffer once
	allocs := testing.AllocsPerRun(10, func() {
		w.Bool(true)
		w.F32(1)
		w.F64(2)
		w.String("key")
		w.F32Block(xs)
		w.Ints([]int{1, -2, 3})
		w.Words([]uint64{1, 2})
	})
	if allocs != 0 {
		t.Fatalf("writer allocates %v per round, want 0", allocs)
	}
}
