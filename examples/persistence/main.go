// Persistence: build an index once, save it in both layouts, and serve
// queries from the disk-backed (out-of-core) form — the deployment shape
// the paper names as future work for >RAM datasets.
//
// The example also exercises the dynamic-update path: insert new vectors
// into the loaded index, delete a few, then Compact and re-save.
//
// Run with:
//
//	go run ./examples/persistence
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func main() {
	dir, err := os.MkdirTemp("", "bilsh-persist-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rng := xrand.New(99)

	// Build once.
	spec := dataset.DefaultClusteredSpec(6000, 64)
	data, _, err := dataset.Clustered(spec, rng.Split(1))
	if err != nil {
		log.Fatal(err)
	}
	ix, err := core.Build(data, core.Options{
		Partitioner: core.PartitionRPTree,
		Groups:      16,
		AutoTuneW:   true,
		Params:      lshfunc.Params{M: 8, L: 10, W: 1},
	}, rng.Split(2))
	if err != nil {
		log.Fatal(err)
	}

	// Save in both layouts.
	selfPath := filepath.Join(dir, "index.bilsh")
	diskPath := filepath.Join(dir, "index.disk")
	f, err := os.Create(selfPath)
	if err != nil {
		log.Fatal(err)
	}
	selfBytes, err := ix.WriteTo(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	if err := ix.SaveDisk(diskPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved self-contained index: %.1f MiB\n", float64(selfBytes)/(1<<20))

	// Serve from the disk-backed layout: the file is mapped read-only and
	// queried in place, so only the pages queries touch become resident.
	di, err := core.OpenDisk(diskPath)
	if err != nil {
		log.Fatal(err)
	}
	defer di.Close()

	q := data.Row(42)
	start := time.Now()
	res, st := di.Query(q, 5)
	fmt.Printf("disk query in %v: ids=%v (scanned %d candidates)\n",
		time.Since(start).Round(time.Microsecond), res.IDs, st.Candidates)
	if res.IDs[0] != 42 {
		log.Fatalf("stored row should be its own nearest neighbor, got %v", res.IDs)
	}

	// Dynamic updates on the served index.
	nv := vec.Clone(data.Row(7))
	nv[0] += 0.002
	newID, err := di.Insert(nv)
	if err != nil {
		log.Fatal(err)
	}
	di.Delete(13)
	res, _ = di.Query(nv, 1)
	fmt.Printf("after insert+delete: new vector %d found=%v, live items=%d\n",
		newID, len(res.IDs) > 0 && res.IDs[0] == newID, di.Len())

	// Fold updates and re-save.
	if _, err := di.Compact(); err != nil {
		log.Fatal(err)
	}
	if err := di.SaveDisk(filepath.Join(dir, "index-compacted.disk")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted to %d items and re-saved\n", di.Len())
}
