package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"bilsh/internal/dataset"
	"bilsh/internal/knn"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// worldSeed draws every workload's dataset. The dataset is a parameter of
// the workload, not an input that --seed varies: a fresh dataset per seed
// moves selectivity by 13 % and recall by 3.5 % between seeds (interquartile
// range over ten seeds), and a fresh held-out sample of one dataset still
// moves selectivity by 3-4 %, which no bound below 10 % could resolve.
// --seed draws the order of the queries and of the inserts instead.
const worldSeed = 1

// inputsMeta identifies a cached input set and carries what generating it
// cost; it is written last, so its presence marks the set complete.
type inputsMeta struct {
	Workload string  `json:"workload"`
	World    int64   `json:"world"`
	N        int     `json:"n"`
	D        int     `json:"d"`
	Queries  int     `json:"queries"`
	Inserts  int     `json:"inserts"`
	GenS     float64 `json:"gen_s"`
	TruthS   float64 `json:"truth_s"`
}

func (w workload) meta() inputsMeta {
	return inputsMeta{Workload: w.Name, World: worldSeed, N: w.N, D: w.D, Queries: w.Queries, Inserts: w.Inserts}
}

// inputs is everything the measuring process receives: rows to index,
// held-out queries with their exact neighbour distances, and held-out rows
// to insert.
type inputs struct {
	Meta       inputsMeta
	Base       *vec.Matrix
	Queries    *vec.Matrix
	Inserts    *vec.Matrix
	TruthDists []float64 // Queries x neighbors exact squared distances, ascending per query
}

func inputsDir(w workload) string { return filepath.Join(".cache", w.Name) }

func inputsCurrent(w workload) bool {
	b, err := os.ReadFile(filepath.Join(inputsDir(w), "meta.json"))
	if err != nil {
		return false
	}
	var m inputsMeta
	if json.Unmarshal(b, &m) != nil {
		return false
	}
	m.GenS, m.TruthS = 0, 0
	return m == w.meta()
}

// genInputs draws the workload's dataset, holds out the query and insert
// rows, computes exact truth and writes all of it under dir.
func genInputs(w workload, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(dir, "meta.json")); err != nil && !os.IsNotExist(err) {
		return err
	}
	start := time.Now()
	rng := xrand.New(worldSeed)
	held := w.Queries + w.Inserts
	data, _, err := dataset.Clustered(dataset.DefaultClusteredSpec(w.N+held, w.D), rng)
	if err != nil {
		return err
	}
	base, rest := dataset.Split(data, held, rng)
	idx := make([]int, held)
	for i := range idx {
		idx[i] = i
	}
	queries, inserts := rest.Subset(idx[:w.Queries]), rest.Subset(idx[w.Queries:])
	meta := w.meta()
	meta.GenS = time.Since(start).Seconds()

	start = time.Now()
	truth := knn.ExactAll(base, queries, neighbors)
	meta.TruthS = time.Since(start).Seconds()
	dists := make([]float64, 0, len(truth)*neighbors)
	for i, r := range truth {
		if len(r.Dists) != neighbors {
			return fmt.Errorf("gen: query %d has %d exact neighbours, want %d", i, len(r.Dists), neighbors)
		}
		dists = append(dists, r.Dists...)
	}

	for name, m := range map[string]*vec.Matrix{"base.fvecs": base, "query.fvecs": queries, "insert.fvecs": inserts} {
		if err := writeFile(filepath.Join(dir, name), func(bw io.Writer) error { return dataset.WriteFvecs(bw, m) }); err != nil {
			return err
		}
	}
	if err := writeFile(filepath.Join(dir, "truth.f64"), func(bw io.Writer) error { return binary.Write(bw, binary.LittleEndian, dists) }); err != nil {
		return err
	}
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "meta.json"), b, 0o644)
}

// shuffle applies the run's seed: the order in which queries are asked and
// held-out rows are inserted.
func (in *inputs) shuffle(seed int64) {
	rng := xrand.New(seed)
	perm := rng.Perm(in.Queries.N)
	in.Queries = in.Queries.Subset(perm)
	truth := make([]float64, 0, len(in.TruthDists))
	for _, qi := range perm {
		truth = append(truth, in.TruthDists[qi*neighbors:(qi+1)*neighbors]...)
	}
	in.TruthDists = truth
	in.Inserts = in.Inserts.Subset(rng.Perm(in.Inserts.N))
}

func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func loadInputs(dir string) (*inputs, error) {
	in := &inputs{}
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &in.Meta); err != nil {
		return nil, fmt.Errorf("%s/meta.json: %w", dir, err)
	}
	for name, dst := range map[string]**vec.Matrix{"base.fvecs": &in.Base, "query.fvecs": &in.Queries, "insert.fvecs": &in.Inserts} {
		if *dst, err = dataset.LoadFvecsFile(filepath.Join(dir, name), 0); err != nil {
			return nil, err
		}
	}
	raw, err := os.ReadFile(filepath.Join(dir, "truth.f64"))
	if err != nil {
		return nil, err
	}
	in.TruthDists = make([]float64, len(raw)/8)
	for i := range in.TruthDists {
		in.TruthDists[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	m := in.Meta
	if in.Base.N != m.N || in.Base.D != m.D || in.Queries.N != m.Queries || in.Inserts.N != m.Inserts ||
		len(in.TruthDists) != m.Queries*neighbors {
		return nil, fmt.Errorf("%s: files do not match meta.json %+v", dir, m)
	}
	return in, nil
}
