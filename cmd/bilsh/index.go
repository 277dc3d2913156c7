package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/durable"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// methodFlags is the method half of the build and search commands' flags;
// options turns it into core.Options. quantize and rerank are nil for a
// command that does not offer them.
type methodFlags struct {
	bilevel  *bool
	lattice  *string
	probe    *string
	groups   *int
	m, l     *int
	w        *float64
	seed     *int64
	quantize *string
	rerank   *int
	metric   *string
	bits     *int
}

func (mf methodFlags) options() (core.Options, error) {
	opts := core.Options{
		Partitioner: core.PartitionNone,
		AutoTuneW:   true,
		Groups:      *mf.groups,
		Params:      lshfunc.Params{M: *mf.m, L: *mf.l, W: *mf.w},
	}
	metric, err := core.ParseMetricKind(*mf.metric)
	if err != nil {
		return opts, err
	}
	opts.Metric = metric
	opts.Bits = *mf.bits
	if mf.quantize != nil {
		q, err := core.ParseQuantizeKind(*mf.quantize)
		if err != nil {
			return opts, err
		}
		opts.Quantize = q
	}
	if mf.rerank != nil {
		opts.RerankFactor = *mf.rerank
	}
	if *mf.bilevel {
		opts.Partitioner = core.PartitionRPTree
	}
	switch strings.ToUpper(*mf.lattice) {
	case "ZM":
		opts.Lattice = core.LatticeZM
	case "E8":
		opts.Lattice = core.LatticeE8
	default:
		return opts, fmt.Errorf("unknown lattice %q (want ZM or E8)", *mf.lattice)
	}
	switch strings.ToLower(*mf.probe) {
	case "single":
		opts.ProbeMode = core.ProbeSingle
	case "multi":
		opts.ProbeMode = core.ProbeMulti
	case "hierarchy":
		opts.ProbeMode = core.ProbeHierarchy
	default:
		return opts, fmt.Errorf("unknown probe mode %q (want single, multi or hierarchy)", *mf.probe)
	}
	return opts, nil
}

// cmdBuild constructs an index from an fvecs file and persists it.
func cmdBuild(args []string) error {
	fs := newFlagSet("build")
	dataPath := fs.String("data", "", "fvecs file with the vectors to index (required)")
	out := fs.String("out", "index.bilsh", "output index path")
	disk := fs.Bool("disk", false, "write the disk-backed (out-of-core) layout")
	stream := fs.Bool("stream", false, "streaming build: never materialize the dataset (implies -disk)")
	sample := fs.Int("sample", 4096, "streaming build: reservoir sample size")
	maxN := fs.Int("maxn", 0, "cap on vectors read (0 = all; ignored with -stream)")
	mf := methodFlags{
		bilevel: fs.Bool("bilevel", true, "use the bi-level scheme"),
		lattice: fs.String("lattice", "ZM", "lattice: ZM or E8"),
		probe:   fs.String("probe", "single", "probe mode: single, multi, hierarchy"),
		groups:  fs.Int("groups", 16, "level-1 partitions"),
		m:       fs.Int("m", 8, "hash code length M"),
		l:       fs.Int("l", 10, "hash tables L"),
		w:       fs.Float64("w", 1.0, "bucket width multiplier"),
		seed:    fs.Int64("seed", 1, "random seed"),
		quantize: fs.String("quantize", "none",
			"row store the short-list scan reads: none or sq8 (int8 codes + exact re-rank)"),
		rerank: fs.Int("rerank", 0,
			"exact re-rank shortlist factor for -quantize sq8 (top k*factor; 0 = default 4)"),
		metric: fs.String("metric", "euclidean",
			"distance metric: euclidean (l2) or hamming (hyperplane-sign sketches + bit-sampling LSH)"),
		bits: fs.Int("bits", 0, "hamming: sketch width in bits (0 = default 256)"),
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("build: -data is required")
	}
	opts, err := mf.options()
	if err != nil {
		return err
	}
	if opts.Metric == core.MetricHamming && (*disk || *stream) {
		return fmt.Errorf("build: -metric hamming indexes are in-memory only (no -disk/-stream); use the self-contained layout")
	}
	if *stream {
		start := time.Now()
		n, err := core.BuildDisk(*dataPath, *out, opts,
			core.OutOfCoreConfig{SampleSize: *sample}, xrand.New(*mf.seed))
		if err != nil {
			return err
		}
		fmt.Printf("stream-indexed %d vectors in %v; wrote disk-backed %s\n",
			n, time.Since(start).Round(time.Millisecond), *out)
		return nil
	}
	data, err := dataset.LoadFvecsFile(*dataPath, *maxN)
	if err != nil {
		return fmt.Errorf("loading data: %w", err)
	}
	start := time.Now()
	ix, err := core.Build(data, opts, xrand.New(*mf.seed))
	if err != nil {
		return err
	}
	buildDur := time.Since(start)

	var n int64
	err = durable.AtomicWrite(*out, func(f *os.File) error {
		var werr error
		if *disk {
			n, werr = ix.WriteDiskTo(f)
		} else {
			n, werr = ix.WriteTo(f)
		}
		return werr
	})
	if err != nil {
		return err
	}
	kind := "self-contained"
	if *disk {
		kind = "disk-backed"
	}
	fmt.Printf("indexed %d vectors (dim %d) in %v; wrote %s %s (%.1f MiB)\n",
		ix.N(), ix.Dim(), buildDur.Round(time.Millisecond), kind, *out, float64(n)/(1<<20))
	return nil
}

// cmdQuery loads a persisted index and answers queries from an fvecs file.
func cmdQuery(args []string) error {
	fs := newFlagSet("query")
	indexPath := fs.String("index", "", "index file from 'bilsh build' (required)")
	queryPath := fs.String("queries", "", "fvecs file with query vectors (required)")
	k := fs.Int("k", 10, "neighbors per query")
	maxQ := fs.Int("maxq", 1000, "cap on queries evaluated")
	workers := fs.Int("workers", 0, "parallel query workers (0 = GOMAXPROCS)")
	truthCheck := fs.Bool("truth", false, "also compute exact ground truth and report recall")
	verbose := fs.Bool("v", false, "print each query's neighbors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" || *queryPath == "" {
		return fmt.Errorf("query: -index and -queries are required")
	}
	if *k < 1 {
		return fmt.Errorf("query: -k must be at least 1, got %d", *k)
	}
	ix, di, err := openAnyIndex(*indexPath, 0)
	if err != nil {
		return fmt.Errorf("loading index: %w", err)
	}
	if di != nil {
		defer di.Close()
	}
	queries, err := dataset.LoadFvecsFile(*queryPath, *maxQ)
	if err != nil {
		return fmt.Errorf("loading queries: %w", err)
	}
	if queries.D != ix.Dim() {
		return fmt.Errorf("dimension mismatch: index %d vs queries %d", ix.Dim(), queries.D)
	}
	start := time.Now()
	results, stats := ix.QueryBatchParallel(queries, *k, *workers)
	dur := time.Since(start)

	var sel float64
	for qi := range results {
		sel += knn.Selectivity(stats[qi].Candidates, ix.N())
		if *verbose {
			fmt.Printf("query %d: %v\n", qi, results[qi].IDs)
		}
	}
	if o := ix.Options(); o.Metric == core.MetricHamming {
		fmt.Printf("index: %d vectors, %d groups, metric hamming (%d-bit sketches), probe %v\n",
			ix.N(), ix.NumGroups(), o.Bits, o.ProbeMode)
	} else {
		fmt.Printf("index: %d vectors, %d groups, lattice %v, probe %v\n",
			ix.N(), ix.NumGroups(), o.Lattice, o.ProbeMode)
	}
	fmt.Printf("%d queries in %v (%.1f q/s), mean selectivity %.4f\n",
		queries.N, dur.Round(time.Millisecond),
		float64(queries.N)/dur.Seconds(), sel/float64(queries.N))
	if *truthCheck {
		// Ground truth needs the raw vectors, which the index carries.
		var recall float64
		for qi := 0; qi < queries.N; qi++ {
			exact := ix.ExactKNN(queries.Row(qi), *k)
			recall += knn.Recall(exact.IDs, results[qi].IDs)
		}
		fmt.Printf("recall vs exact: %.4f\n", recall/float64(queries.N))
	}
	return nil
}

// cmdGroundTruth computes exact k-NN id lists for a query file and writes
// them in ivecs format (the TexMex ground-truth convention).
func cmdGroundTruth(args []string) error {
	fs := newFlagSet("groundtruth")
	dataPath := fs.String("data", "", "fvecs file with the indexed vectors (required)")
	queryPath := fs.String("queries", "", "fvecs file with query vectors (required)")
	out := fs.String("out", "groundtruth.ivecs", "output ivecs path")
	k := fs.Int("k", 100, "neighbors per query")
	maxN := fs.Int("maxn", 0, "cap on data vectors (0 = all)")
	maxQ := fs.Int("maxq", 0, "cap on queries (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataPath == "" || *queryPath == "" {
		return fmt.Errorf("groundtruth: -data and -queries are required")
	}
	data, err := dataset.LoadFvecsFile(*dataPath, *maxN)
	if err != nil {
		return fmt.Errorf("loading data: %w", err)
	}
	queries, err := dataset.LoadFvecsFile(*queryPath, *maxQ)
	if err != nil {
		return fmt.Errorf("loading queries: %w", err)
	}
	start := time.Now()
	truth := knn.ExactAll(data, queries, *k)
	rows := make([][]int32, len(truth))
	for i, t := range truth {
		rows[i] = make([]int32, len(t.IDs))
		for j, id := range t.IDs {
			rows[i][j] = int32(id)
		}
	}
	err = durable.AtomicWrite(*out, func(f *os.File) error {
		return dataset.WriteIvecs(f, rows)
	})
	if err != nil {
		return err
	}
	fmt.Printf("wrote exact %d-NN of %d queries over %d vectors to %s in %v\n",
		*k, queries.N, data.N, *out, time.Since(start).Round(time.Millisecond))
	return nil
}

// openAnyIndex opens an index file in either current layout, told apart
// by its magic: a paged bilsh.Disk/3 image is mapped (di is non-nil and
// owns the mapping; close it when done), anything else is read as a
// self-contained wire image. rowsBudget caps the mapped exact-row
// residency (0 = unlimited). Legacy formats fail with an error that
// names 'bilsh upgrade'.
func openAnyIndex(path string, rowsBudget int64) (ix *core.Index, di *core.DiskIndex, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var head [16]byte
	if _, err := f.Read(head[:]); err == nil && string(head[:11]) == "bilsh.Disk/" {
		di, err := core.OpenDiskWith(path, core.DiskOpenOptions{
			Residency: core.ResidencyPolicy{PinCodes: true, RowsBudget: rowsBudget},
		})
		if err != nil {
			return nil, nil, err
		}
		return di.Index, di, nil
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, nil, err
	}
	ix, err = core.ReadIndex(f)
	return ix, nil, err
}

// cmdUpgrade converts an index file, or the checkpoint of a durable data
// directory, from a legacy format to the current one (core.Upgrade). A
// file already current is checked and left unchanged.
func cmdUpgrade(args []string) error {
	fs := newFlagSet("upgrade")
	in := fs.String("in", "", "index file in an older format to convert (self-contained or -disk layout)")
	out := fs.String("out", "", "where to write the converted file (default: replace -in)")
	dataDir := fs.String("data-dir", "", "durable data directory whose checkpoint to convert (instead of -in)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir != "" {
		*in = filepath.Join(*dataDir, durable.CheckpointFileName)
	}
	if *in == "" {
		return fmt.Errorf("upgrade: -in or -data-dir is required")
	}
	if *out == "" {
		*out = *in
	}
	from, to, err := core.Upgrade(*in, *out)
	if err != nil {
		return err
	}
	switch {
	case from != to:
		fmt.Printf("%s: %s -> %s, wrote %s\n", *in, from, to, *out)
	case *out != *in:
		fmt.Printf("%s: already %s, copied unchanged to %s\n", *in, from, *out)
	default:
		fmt.Printf("%s: already %s, unchanged\n", *in, from)
	}
	return nil
}

// cmdInfo describes a persisted index.
func cmdInfo(args []string) error {
	fs := newFlagSet("info")
	indexPath := fs.String("index", "", "index file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *indexPath == "" {
		return fmt.Errorf("info: -index is required")
	}
	ix, di, err := openAnyIndex(*indexPath, 0)
	if err != nil {
		return err
	}
	if di != nil {
		defer di.Close()
	}
	return ix.Describe().WriteReport(os.Stdout)
}
