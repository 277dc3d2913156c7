package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// roundTripIndex serializes and reloads an index, asserting byte counts.
func roundTripIndex(t *testing.T, ix *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestSerializeRoundTripVariants(t *testing.T) {
	data := testData(t, 300, 16, 31)
	variants := []Options{
		{Partitioner: PartitionNone, Params: lshfunc.Params{M: 4, L: 3, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, AutoTuneW: true,
			Params: lshfunc.Params{M: 4, L: 2, W: 1}},
		{Partitioner: PartitionKMeans, Groups: 3,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, ProbeMode: ProbeHierarchy,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		{Partitioner: PartitionNone, ProbeMode: ProbeMulti, Probes: 20,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
	}
	queries := testData(t, 10, 16, 32)
	for vi, opts := range variants {
		orig, err := Build(data, opts, xrand.New(int64(100+vi)))
		if err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		loaded := roundTripIndex(t, orig)

		if loaded.N() != orig.N() || loaded.Dim() != orig.Dim() ||
			loaded.NumGroups() != orig.NumGroups() {
			t.Fatalf("variant %d: shape changed across round trip", vi)
		}
		// Every query must produce identical results and stats.
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			r1, s1 := orig.Query(q, 7)
			r2, s2 := loaded.Query(q, 7)
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("variant %d query %d: results differ after reload", vi, qi)
			}
			if s1.Candidates != s2.Candidates || s1.Group != s2.Group {
				t.Fatalf("variant %d query %d: stats differ after reload (%+v vs %+v)", vi, qi, s1, s2)
			}
		}
	}
}

func TestSerializeGroupWidthsPreserved(t *testing.T) {
	data := testData(t, 400, 12, 33)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 6,
		AutoTuneW: true, Params: lshfunc.Params{M: 4, L: 2, W: 1.3}}, xrand.New(34))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTripIndex(t, ix)
	for g := 0; g < ix.NumGroups(); g++ {
		if loaded.GroupW(g) != ix.GroupW(g) {
			t.Fatalf("group %d width changed: %v -> %v", g, ix.GroupW(g), loaded.GroupW(g))
		}
		if loaded.GroupSize(g) != ix.GroupSize(g) {
			t.Fatalf("group %d size changed", g)
		}
	}
	s1, s2 := ix.TableSummary(), loaded.TableSummary()
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("table summaries differ: %+v vs %+v", s1, s2)
	}
}

func TestReadIndexRejectsGarbage(t *testing.T) {
	if _, err := ReadIndex(bytes.NewReader([]byte("not an index"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := ReadIndex(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input must be rejected")
	}
}

// TestReadIndexRejectsPostingOutsideRows pins the posting bound: an image
// whose table holds ids past the last row is refused, naming the group and
// the table, where it used to load and panic on the first query that
// reached such a bucket.
func TestReadIndexRejectsPostingOutsideRows(t *testing.T) {
	ix, err := Build(testData(t, 200, 8, 39), Options{Partitioner: PartitionRPTree, Groups: 2,
		ProbeMode: ProbeMulti, Probes: 8, Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(40))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ReadIndex(bytes.NewReader(hostilePostingImage(t, ix)))
	if err == nil || !strings.Contains(err.Error(), "group 0 table 0") || !strings.Contains(err.Error(), "out of [0,200)") {
		t.Fatalf("ReadIndex of postings past the rows: err %v, want one naming group 0 table 0 and [0,200)", err)
	}
}

func TestReadIndexRejectsTruncation(t *testing.T) {
	data := testData(t, 100, 8, 35)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 3,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(36))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Probe a spread of truncation points; all must fail, none may panic.
	for _, frac := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999} {
		cut := int(float64(len(full)) * frac)
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", cut, len(full))
		}
	}
}

func TestReadIndexRejectsCorruptMiddle(t *testing.T) {
	data := testData(t, 80, 8, 37)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 1, W: 2}}, xrand.New(38))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip the partitioner section tag region; decode must error (not
	// panic) — exact failure mode depends on where the flip lands.
	corrupt := append([]byte(nil), full...)
	for i := 20; i < 40 && i < len(corrupt); i++ {
		corrupt[i] ^= 0xff
	}
	if _, err := ReadIndex(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt header not detected")
	}
}
