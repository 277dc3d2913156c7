package lshtable

import (
	"bytes"
	"reflect"
	"testing"

	"bilsh/internal/wire"
)

func TestTableRoundTrip(t *testing.T) {
	orig, err := Build([]string{"b", "a", "b", "c", "a", "a"}, []int{0, 1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	orig.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(wire.NewReader(&buf), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBuckets() != orig.NumBuckets() || got.NumItems() != orig.NumItems() {
		t.Fatal("table shape changed")
	}
	for _, key := range []string{"a", "b", "c", "zz"} {
		if !reflect.DeepEqual(got.Bucket(key), orig.Bucket(key)) {
			t.Fatalf("bucket %q differs after round trip", key)
		}
	}
	if !reflect.DeepEqual(got.Summary(), orig.Summary()) {
		t.Fatal("summary differs after round trip")
	}
}

func TestEmptyTableRoundTrip(t *testing.T) {
	orig, err := Build(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	orig.Encode(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTable(wire.NewReader(&buf), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumBuckets() != 0 || got.Bucket("x") != nil {
		t.Fatal("empty table misbehaves after round trip")
	}
}

func TestDecodeTableRejectsInconsistentIntervals(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Magic("lshtable.Table/1")
	w.Strings([]string{"a", "b"})
	w.Ints([]int{0, 5, 3}) // decreasing interval
	w.Ints([]int{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(wire.NewReader(&buf), 1<<20); err == nil {
		t.Fatal("decreasing bucket intervals must be rejected")
	}
}

func TestDecodeTableRejectsUnsortedKeys(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Magic("lshtable.Table/1")
	w.Strings([]string{"b", "a"})
	w.Ints([]int{0, 1, 2})
	w.Ints([]int{1, 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(wire.NewReader(&buf), 1<<20); err == nil {
		t.Fatal("unsorted keys must be rejected")
	}
}

func TestDecodeTableRejectsStartMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Magic("lshtable.Table/1")
	w.Strings([]string{"a"})
	w.Ints([]int{0, 3}) // claims 3 ids...
	w.Ints([]int{1, 2}) // ...but carries 2
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTable(wire.NewReader(&buf), 1<<20); err == nil {
		t.Fatal("interval/id mismatch must be rejected")
	}
}
