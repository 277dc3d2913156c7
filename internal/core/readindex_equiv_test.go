package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
	"bilsh/internal/xrand"
)

// ReadIndex reads its sections in bulk and adopts each table as decoded.
// The two decoders it ran before — a matrix read one float per call, and a
// table rebuilt from its flattened postings by Build — are kept below,
// verbatim but for the names and for reading the table's slices one
// element per call as wire.Reader used to, as the oracles of that change.

func oracleDecodeMatrix(r *wire.Reader) (*vec.Matrix, error) {
	r.ExpectMagic("vec.Matrix/1")
	n := r.Int()
	d := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if lim := r.Limit() / 4; n < 0 || d <= 0 || n > lim || d > lim || n*d > lim {
		return nil, fmt.Errorf("vec: decoded matrix shape %dx%d implausible", n, d)
	}
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = r.F32()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

func oracleDecodeTable(r *wire.Reader) (*lshtable.Table, error) {
	r.ExpectMagic("lshtable.Table/1")
	keys := make([]string, oracleLen(r))
	for i := range keys {
		keys[i] = r.String()
	}
	starts, ids := oracleInts(r), oracleInts(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if len(starts) != len(keys)+1 {
		return nil, fmt.Errorf("lshtable: decoded %d starts for %d keys", len(starts), len(keys))
	}
	if len(starts) > 0 {
		if starts[0] != 0 || starts[len(starts)-1] != len(ids) {
			return nil, fmt.Errorf("lshtable: decoded bucket intervals do not cover the id array")
		}
		for b := 1; b < len(starts); b++ {
			if starts[b] < starts[b-1] {
				return nil, fmt.Errorf("lshtable: decoded bucket %d has negative size", b-1)
			}
			if b < len(keys) && keys[b] <= keys[b-1] {
				return nil, fmt.Errorf("lshtable: decoded keys not strictly sorted at %d", b)
			}
		}
	}
	// Empty tables round-trip with nil slices; normalize the sentinel.
	if len(keys) == 0 {
		starts = append(starts[:0], 0)
	}
	// Rebuild the cuckoo index.
	rebuilt, err := lshtable.Build(oracleFlattenCodes(keys, starts), oracleFlattenIDs(ids))
	if err != nil {
		return nil, fmt.Errorf("lshtable: rebuilding index: %w", err)
	}
	return rebuilt, nil
}

func oracleFlattenCodes(keys []string, starts []int) []string {
	out := make([]string, 0, starts[len(starts)-1])
	for b := 0; b < len(keys); b++ {
		for i := starts[b]; i < starts[b+1]; i++ {
			out = append(out, keys[b])
		}
	}
	return out
}

func oracleFlattenIDs(ids []int) []int {
	out := make([]int, 0, len(ids))
	out = append(out, ids...)
	return out
}

// oracleLen reads a slice's length prefix; the oracles only ever see
// valid input, so it is bounded only to keep a test from allocating wild.
func oracleLen(r *wire.Reader) int {
	n := r.U64()
	if n > uint64(r.Limit()) {
		return 0
	}
	return int(n)
}

func oracleInts(r *wire.Reader) []int {
	xs := make([]int, oracleLen(r))
	for i := range xs {
		xs[i] = int(r.I64())
	}
	return xs
}

// oracleKinds are the index kinds the load path must reproduce: every
// section ReadIndex decodes appears in at least one.
var oracleKinds = []struct {
	name string
	opts Options
	// digest is the SHA-256 of the kind's WriteTo bytes, which the
	// bulk-section codec was required to leave unchanged: a format drift
	// fails here even when writer and reader drift together. The
	// p-stable kinds were re-pinned when the families became binary16
	// (lshfunc.Family/2), a deliberate format change.
	digest string
}{
	{"euclidean", Options{Partitioner: PartitionRPTree, Groups: 4, AutoTuneW: true,
		ProbeMode: ProbeMulti, Probes: 8, Params: lshfunc.Params{M: 4, L: 3, W: 1}},
		"0f391705b15fee6a15273975612f78494a167aa0f13def8515ac92cd607143c7"},
	{"sq8", Options{Partitioner: PartitionRPTree, Groups: 4, AutoTuneW: true,
		ProbeMode: ProbeMulti, Probes: 16, Quantize: QuantizeSQ8, Params: lshfunc.Params{M: 8, L: 3, W: 1}},
		"94d29ce7e32c5ee4ace38e9938013b96499ea33f7844f0447e5e2868c4fb5df8"},
	{"hamming", Options{Metric: MetricHamming, Bits: 64, Partitioner: PartitionRPTree, Groups: 3,
		ProbeMode: ProbeMulti, Probes: 4, Params: lshfunc.Params{M: 8, L: 3}},
		"a94a75a381113cd0c7c98452caed7debddc94f4cdc6022d13fd7033813ef766e"},
	{"hierarchy", Options{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
		ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		"098b20010cccab687b10d9aafdef307f072662210a972bcd619a8c32ef388d25"},
	{"kmeans", Options{Partitioner: PartitionKMeans, Groups: 3,
		ProbeMode: ProbeSingle, Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		"b4eb7639795ea42d3c8abe13692bdffa32ac5a9379d696b7e1d47bc03190314a"},
}

// oracleIndex builds kind's index over fixed data.
func oracleIndex(t *testing.T, opts Options) *Index {
	t.Helper()
	ix, err := Build(testData(t, 500, 16, 41), opts, xrand.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func encodeTable(t *testing.T, tab *lshtable.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	tab.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameTable requires got to be want: the same keys, intervals, ids and
// overflow map and the same cuckoo slots (AppendMapped images every one of
// them), and LookupBlock giving the same ordinal for every key and for an
// absent one.
func sameTable(t *testing.T, where string, got, want *lshtable.Table) {
	t.Helper()
	if !bytes.Equal(got.AppendMapped(nil), want.AppendMapped(nil)) {
		t.Fatalf("%s: table differs from the oracle's (keys %q / %q)", where, got.Keys(), want.Keys())
	}
	for _, key := range append(want.Keys(), "absent key") {
		a := got.LookupBlock(nil, []byte(key), len(key))
		b := want.LookupBlock(nil, []byte(key), len(key))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: LookupBlock(%q) = %v, oracle %v", where, key, a, b)
		}
	}
	if keys := want.Keys(); len(keys) > 0 {
		// All of a built table's keys share one length: one block, which
		// crosses LookupBlock's chunks.
		block := []byte(strings.Join(keys, ""))
		a := got.LookupBlock(nil, block, len(keys[0]))
		b := want.LookupBlock(nil, block, len(keys[0]))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: LookupBlock over all keys differs from the oracle's", where)
		}
	}
}

// TestReadIndexMatchesOracle loads each kind and holds the result to the
// oracles: every table equal to the one the old decoder rebuilds from the
// same bytes, the rows equal to the per-float decode's, every query
// answered identically, and WriteTo reproducing the file — whose digest
// is pinned.
func TestReadIndexMatchesOracle(t *testing.T) {
	queries := testData(t, 20, 16, 43)
	for _, kind := range oracleKinds {
		t.Run(kind.name, func(t *testing.T) {
			ix := oracleIndex(t, kind.opts)
			var img bytes.Buffer
			if _, err := ix.WriteTo(&img); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img.Bytes())
			if got := hex.EncodeToString(sum[:]); runtime.GOARCH == "amd64" && got != kind.digest {
				t.Errorf("WriteTo digest %s, pinned %s", got, kind.digest)
			}
			loaded, err := ReadIndex(bytes.NewReader(img.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if _, err := loaded.WriteTo(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), img.Bytes()) {
				t.Fatal("WriteTo of the loaded index differs from the file it was read from")
			}

			src, got := ix.loadSnap(), loaded.loadSnap()
			var rows bytes.Buffer
			w := wire.NewWriter(&rows)
			src.data.Encode(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			want, err := oracleDecodeMatrix(wire.NewReader(&rows))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(vecBits(got.data.Data), vecBits(want.Data)) {
				t.Fatal("rows differ from the per-float decode")
			}
			for gi, g := range src.groups {
				for ti, tab := range g.tables {
					want, err := oracleDecodeTable(wire.NewReader(bytes.NewReader(encodeTable(t, tab))))
					if err != nil {
						t.Fatal(err)
					}
					sameTable(t, fmt.Sprintf("group %d table %d", gi, ti), got.groups[gi].tables[ti], want)
				}
			}

			for qi := 0; qi < queries.N; qi++ {
				r1, s1 := ix.Query(queries.Row(qi), 10)
				r2, s2 := loaded.Query(queries.Row(qi), 10)
				s1.Timings, s2.Timings = StageTimings{}, StageTimings{}
				if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(s1, s2) {
					t.Fatalf("query %d: loaded index answers %v %+v, built one %v %+v", qi, r2, s2, r1, s1)
				}
			}
		})
	}
}

func vecBits(xs []float32) []uint32 {
	out := make([]uint32, len(xs))
	for i, x := range xs {
		out[i] = math.Float32bits(x)
	}
	return out
}

// TestDecodeTableMatchesOracleOnAnyPostings feeds DecodeTable tables no
// builder writes — ids out of order within a bucket, repeated ids, empty
// buckets, no buckets — and requires exactly the oracle's table: the
// decoder sorts and drops where Build would.
func TestDecodeTableMatchesOracleOnAnyPostings(t *testing.T) {
	cases := []struct {
		name   string
		keys   []string
		starts []int
		ids    []int
	}{
		{"out-of-order buckets", []string{"aa", "bb", "cc"}, []int{0, 3, 5, 7}, []int{5, 1, 3, 2, 0, 6, 4}},
		{"one bucket out of order", []string{"aa", "bb"}, []int{0, 2, 4}, []int{0, 1, 3, 2}},
		{"repeated ids", []string{"aa", "bb"}, []int{0, 3, 5}, []int{4, 2, 4, 1, 1}},
		{"empty buckets", []string{"aa", "bb", "cc", "dd"}, []int{0, 0, 2, 2, 3}, []int{3, 1, 0}},
		{"no buckets", nil, []int{0}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := wire.NewWriter(&buf)
			w.Magic("lshtable.Table/1")
			w.Strings(c.keys)
			w.Ints(c.starts)
			w.Ints(c.ids)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := lshtable.DecodeTable(wire.NewReader(bytes.NewReader(buf.Bytes())), 8)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleDecodeTable(wire.NewReader(bytes.NewReader(buf.Bytes())))
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, c.name, got, want)
		})
	}
}
