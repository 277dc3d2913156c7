package core

import (
	"bytes"
	"strings"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func TestDescribe(t *testing.T) {
	data := testData(t, 200, 12, 101)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 4,
		AutoTuneW: true, Params: lshfunc.Params{M: 4, L: 3, W: 1}}, xrand.New(102))
	if err != nil {
		t.Fatal(err)
	}
	d := ix.Describe()
	if d.N != 200 || d.Dim != 12 || d.Live != 200 || d.Groups != 4 {
		t.Fatalf("shape: %+v", d)
	}
	if d.M != 4 || d.L != 3 || d.DiskBacked {
		t.Fatalf("method: %+v", d)
	}
	var total int
	for _, s := range d.GroupSizes {
		total += s
	}
	if total != 200 {
		t.Fatalf("group sizes sum to %d", total)
	}
	if d.Items != 200*3 {
		t.Fatalf("items = %d", d.Items)
	}
	// Dynamic state shows up.
	if _, err := ix.Insert(vec.Clone(data.Row(0))); err != nil {
		t.Fatal(err)
	}
	ix.Delete(5)
	d = ix.Describe()
	if d.PendingInserts != 1 || d.PendingDeletes != 1 || d.Live != 200 {
		t.Fatalf("dynamic: %+v", d)
	}
	var buf bytes.Buffer
	if err := d.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"200 vectors", "groups=4", "pending inserts", "widths W"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestDescribeDiskBacked: a paged index served off its mapping describes
// itself as disk-backed; the heap-loaded copy of the same file, and the
// index once Compact has moved it to the heap, do not.
func TestDescribeDiskBacked(t *testing.T) {
	data := testData(t, 200, 12, 103)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 3, W: 1}}, xrand.New(104))
	if err != nil {
		t.Fatal(err)
	}
	path := saveV3(t, ix)
	heap, err := OpenDiskWith(path, DiskOpenOptions{ForceHeap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if heap.Describe().DiskBacked {
		t.Fatal("heap-loaded paged index reports DiskBacked")
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	defer di.Close()
	if !di.Mapped() {
		t.Skip("mmap unavailable on this host")
	}
	d := di.Describe()
	if !d.DiskBacked {
		t.Fatal("mapped paged index does not report DiskBacked")
	}
	var buf bytes.Buffer
	if err := d.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disk-backed") {
		t.Fatalf("report does not say disk-backed:\n%s", buf.String())
	}
	if _, err := di.Insert(data.Row(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	if di.Describe().DiskBacked {
		t.Fatal("compacted (heap) index still reports DiskBacked")
	}
}
