package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"bilsh/internal/dataset"
	"bilsh/internal/durable"
	"bilsh/internal/kmeans"
	"bilsh/internal/lshfunc"
	"bilsh/internal/rptree"
	"bilsh/internal/tuner"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Out-of-core construction — the build-side half of the paper's future
// work on very large datasets. BuildDisk streams an fvecs file in three
// passes with memory bounded by max(sample, largest group, id arrays),
// never materializing the full N×D matrix:
//
//	pass 1  reservoir-sample S rows; build the level-1 partitioner and
//	        tune per-group widths on the sample;
//	pass 2  stream rows: route each to its group, appending the vector to
//	        a per-group spill file, and append the raw row to the payload
//	        spill (already in final id order);
//	pass 3  per group, load the spill (one group in memory at a time),
//	        hash into L tables, and emit the disk-backed index file with
//	        the payload section copied from the spill.
//
// The produced file is a standard disk index: OpenDisk serves it with
// vectors on disk.

// OutOfCoreConfig bounds the streaming build.
type OutOfCoreConfig struct {
	// SampleSize is the reservoir size used for the partitioner and the
	// tuner (default 4096).
	SampleSize int
	// TempDir holds the spill files (default os.TempDir()).
	TempDir string
}

func (c *OutOfCoreConfig) fill() {
	if c.SampleSize <= 0 {
		c.SampleSize = 4096
	}
	if c.TempDir == "" {
		c.TempDir = os.TempDir()
	}
}

// BuildDisk streams dataPath (fvecs) into a disk-backed index at outPath.
// It returns the number of indexed rows.
func BuildDisk(dataPath, outPath string, opts Options, cfg OutOfCoreConfig, rng *xrand.RNG) (int, error) {
	if err := opts.fill(); err != nil {
		return 0, err
	}
	if opts.Metric == MetricHamming {
		return 0, fmt.Errorf("core: Hamming indexes do not support out-of-core construction; use Build + WriteTo")
	}
	cfg.fill()

	// ---- Pass 1: reservoir sample.
	srng := rng.Split(1)
	var sampleRows [][]float32
	n, dim, err := dataset.ScanFvecs(dataPath, func(i int, row []float32) error {
		if len(sampleRows) < cfg.SampleSize {
			sampleRows = append(sampleRows, vec.Clone(row))
			return nil
		}
		if j := srng.Intn(i + 1); j < cfg.SampleSize {
			copy(sampleRows[j], row)
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("core: out-of-core pass 1: %w", err)
	}
	if n == 0 {
		return 0, fmt.Errorf("core: out-of-core: %s is empty", dataPath)
	}
	sample := vec.FromRows(sampleRows)

	// Partitioner on the sample. The index file is built from these local
	// structures; no in-memory Index is ever materialized.
	var (
		tree *rptree.Tree
		km   *kmeans.Model
	)
	var sampleMembers [][]int
	switch opts.Partitioner {
	case PartitionNone:
		all := make([]int, sample.N)
		for i := range all {
			all[i] = i
		}
		sampleMembers = [][]int{all}
	case PartitionRPTree:
		var asg *rptree.Assignment
		tree, asg = rptree.Build(sample, rptree.Options{
			Rule: opts.RPRule, Leaves: opts.Groups, MinLeafSize: opts.MinGroupSize,
		}, rng.Split(2))
		sampleMembers = asg.Members
	case PartitionKMeans:
		var asg *kmeans.Assignment
		km, asg = kmeans.Build(sample, kmeans.Options{K: opts.Groups}, rng.Split(2))
		sampleMembers = asg.Members
	default:
		return 0, fmt.Errorf("core: unknown partitioner %v", opts.Partitioner)
	}
	routeOf := func(v []float32) int {
		switch {
		case tree != nil:
			return tree.Leaf(v)
		case km != nil:
			return km.Assign(v)
		default:
			return 0
		}
	}
	nGroups := len(sampleMembers)

	// Per-group widths and hash families from the sample.
	grng := rng.Split(3)
	groups := make([]*group, nGroups)
	for gi, members := range sampleMembers {
		g := &group{}
		gr := grng.Split(int64(gi))
		w := opts.Params.W
		if opts.AutoTuneW && len(members) >= 2 {
			perTable := 1 - math.Pow(1-opts.TuneTargetRecall, 1/float64(opts.Params.L))
			if perTable <= 0 {
				perTable = 1e-6
			}
			if perTable >= 1 {
				perTable = 1 - 1e-6
			}
			est, err := tuner.EstimateW(sample, members, opts.TuneK, opts.Params.M,
				perTable, tuner.Config{}, gr.Split(100))
			if err != nil {
				return 0, err
			}
			if est.W > 0 && est.Samples > 0 {
				w = est.W * opts.Params.W
			}
		}
		g.w = w
		params := opts.Params
		params.W = w
		fam, err := lshfunc.NewFamily(dim, params, gr.Split(101))
		if err != nil {
			return 0, err
		}
		g.fam = fam
		if g.lat, err = newLattice(opts.Lattice, params.M); err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
		groups[gi] = g
	}

	// ---- Pass 2: route rows to group spills and stream the payload.
	tmp, err := os.MkdirTemp(cfg.TempDir, "bilsh-ooc-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp)

	payloadPath := filepath.Join(tmp, "payload")
	payloadF, err := os.Create(payloadPath)
	if err != nil {
		return 0, err
	}
	payload := bufio.NewWriterSize(payloadF, 1<<20)

	spillF := make([]*os.File, nGroups)
	spillW := make([]*bufio.Writer, nGroups)
	for gi := range spillF {
		f, err := os.Create(filepath.Join(tmp, fmt.Sprintf("group-%d", gi)))
		if err != nil {
			payloadF.Close()
			return 0, err
		}
		spillF[gi] = f
		spillW[gi] = bufio.NewWriterSize(f, 1<<18)
	}
	closeSpills := func() {
		for _, f := range spillF {
			if f != nil {
				f.Close()
			}
		}
		payloadF.Close()
	}

	rowBuf := make([]byte, 4*dim)
	var idBuf [8]byte
	_, _, err = dataset.ScanFvecs(dataPath, func(i int, row []float32) error {
		for j, v := range row {
			binary.LittleEndian.PutUint32(rowBuf[4*j:], math.Float32bits(v))
		}
		if _, err := payload.Write(rowBuf); err != nil {
			return err
		}
		gi := routeOf(row)
		groups[gi].members = append(groups[gi].members, i)
		binary.LittleEndian.PutUint64(idBuf[:], uint64(i))
		if _, err := spillW[gi].Write(idBuf[:]); err != nil {
			return err
		}
		_, err := spillW[gi].Write(rowBuf)
		return err
	})
	if err != nil {
		closeSpills()
		return 0, fmt.Errorf("core: out-of-core pass 2: %w", err)
	}
	if err := payload.Flush(); err != nil {
		closeSpills()
		return 0, err
	}
	for gi := range spillW {
		if err := spillW[gi].Flush(); err != nil {
			closeSpills()
			return 0, err
		}
	}

	// ---- Pass 3: per-group hashing and table construction.
	var scratch hashScratch
	for gi, g := range groups {
		if err := buildGroupFromSpill(g, spillF[gi], dim, &scratch); err != nil {
			closeSpills()
			return 0, fmt.Errorf("core: out-of-core group %d: %w", gi, err)
		}
	}
	closeSpills()

	// Hierarchies.
	if opts.ProbeMode == ProbeHierarchy {
		if err := buildHierarchies(groups, opts); err != nil {
			return 0, fmt.Errorf("core: out-of-core: %w", err)
		}
	}

	// Quantized row store: two more streaming passes over the payload spill
	// (min/max then encode), so the full float32 matrix is still never
	// resident — only the codes are.
	var quant *vec.QuantizedMatrix
	if opts.Quantize == QuantizeSQ8 && n > 0 {
		pf, err := os.Open(payloadPath)
		if err != nil {
			return 0, err
		}
		var (
			qerr error
			br   *bufio.Reader
			next int
		)
		rowBytes := make([]byte, 4*dim)
		row := make([]float32, dim)
		quant = vec.QuantizeSQ8Rows(n, dim, func(i int) []float32 {
			if qerr != nil {
				return row
			}
			if br == nil || i != next {
				if _, err := pf.Seek(int64(i)*int64(len(rowBytes)), io.SeekStart); err != nil {
					qerr = err
					return row
				}
				br = bufio.NewReaderSize(pf, 1<<20)
			}
			next = i + 1
			if _, err := io.ReadFull(br, rowBytes); err != nil {
				qerr = err
				return row
			}
			for j := range row {
				row[j] = math.Float32frombits(binary.LittleEndian.Uint32(rowBytes[4*j:]))
			}
			return row
		})
		pf.Close()
		if qerr != nil {
			return 0, fmt.Errorf("core: out-of-core quantize: %w", qerr)
		}
	}

	// ---- Emit the paged disk index (v3): sections stream through the
	// layout writer, with the row payload copied straight from the spill.
	// The output is built in outPath+".tmp" and renamed into place once
	// fsynced (durable.AtomicWrite), so an interrupted build never leaves
	// a truncated index at outPath.
	err = durable.AtomicWrite(outPath, func(out *os.File) error {
		src := &diskV3Source{
			opts: opts, n: n, d: dim,
			quant: quant, tree: tree, km: km, groups: groups,
			rows: func(w io.Writer) error {
				pf, err := os.Open(payloadPath)
				if err != nil {
					return err
				}
				defer pf.Close()
				_, err = io.Copy(w, pf)
				return err
			},
		}
		_, err := writeDiskV3(out, src)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// buildGroupFromSpill loads one group's spilled (id, vector) records and
// builds its L tables. Only this group's vectors are resident.
func buildGroupFromSpill(g *group, spill *os.File, dim int, s *hashScratch) error {
	if _, err := spill.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(spill, 1<<18)
	rec := make([]byte, 8+4*dim)
	ids := make([]int, 0, len(g.members))
	rows := make([]float32, 0, len(g.members)*dim)
	for {
		if _, err := io.ReadFull(br, rec); err != nil {
			if err == io.EOF {
				break
			}
			return err
		}
		ids = append(ids, int(binary.LittleEndian.Uint64(rec[:8])))
		for j := 0; j < dim; j++ {
			rows = append(rows, math.Float32frombits(binary.LittleEndian.Uint32(rec[8+4*j:])))
		}
	}
	return g.buildTables(s, ids, func(i int) []float32 { return rows[i*dim : (i+1)*dim] })
}
