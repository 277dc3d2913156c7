package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bilsh/internal/hierarchy"
	"bilsh/internal/kmeans"
	"bilsh/internal/lattice"
	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/multiprobe"
	"bilsh/internal/rptree"
	"bilsh/internal/tuner"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Index is a built Bi-level LSH index (or a standard LSH index when
// Options.Partitioner is PartitionNone).
//
// Concurrency: the index is safe for unrestricted concurrent use. Readers
// (Query, QueryBatch, QueryBatchParallel, CandidateList, ExactKNN,
// Describe, Len, Epoch, ...) load the current snapshot once and never take
// a lock. Writers (Insert, Delete, Compact, RebuildHierarchies) serialize
// on a short-held mutex; Compact additionally runs its rebuild outside the
// mutex, so reads and writes keep flowing while it works. See
// docs/concurrency.md.
type Index struct {
	// opts are the (filled) build options. The struct is immutable after
	// construction except for the dynamic knobs guarded by mu (memtable
	// threshold, auto-compact), which the query path never reads.
	opts Options

	// snap is the published read view; see snapshot.go.
	snap atomic.Pointer[snapshot]

	// mu serializes all mutators (insert, delete, seal, snapshot swap).
	// It is held only for short, bounded sections — never across a
	// compaction rebuild or a query.
	mu sync.Mutex

	// compactMu admits at most one Compact at a time (TryLock, so callers
	// get ErrCompactBusy instead of queuing).
	compactMu sync.Mutex

	// Insert scratch, guarded by mu (inserts serialize on it), reused
	// across inserts so the write path does not feed the garbage collector
	// on every call.
	ins hashScratch

	// scratchPool recycles per-query scratch state (see scratch.go). The
	// zero value is usable, so no constructor threading is needed.
	scratchPool sync.Pool
}

// group is one level-1 partition with its level-2 machinery. Groups
// reachable from a published snapshot are immutable; mutators that change
// derived state (Compact, RebuildHierarchies) build replacement groups and
// publish a new snapshot.
type group struct {
	members []int // global row ids
	fam     *lshfunc.Family
	lat     lattice.Lattice
	w       float64 // the group's effective bucket width
	tables  []*lshtable.Table
	// Hierarchies (one per table), present when ProbeMode==ProbeHierarchy.
	mortonH []*hierarchy.Morton
	e8H     []*hierarchy.E8Tree
	// bsamp replaces fam/lat under MetricHamming: per-table bit positions
	// sampled from the snapshot's global sketch. fam, lat and the
	// hierarchies are nil in that mode.
	bsamp *lshfunc.BitSampler
}

// newIndex wraps built structures into an Index with its first snapshot.
func newIndex(opts Options, data *vec.Matrix, quant *vec.QuantizedMatrix,
	tree *rptree.Tree, km *kmeans.Model, groups []*group) *Index {
	ix := &Index{opts: opts}
	ix.snap.Store(&snapshot{
		epoch: 1, opts: opts,
		data: data, quant: quant, tree: tree, km: km, groups: groups,
	})
	return ix
}

// attachHamming sets the Hamming plane on a freshly constructed index's
// first snapshot. Call before the index is shared (Build/ReadIndex only);
// snapshot clones carry the fields forward from then on.
func (ix *Index) attachHamming(sk *lshfunc.Sketcher, sketches *vec.BinaryMatrix) {
	sn := ix.snap.Load()
	sn.sketcher = sk
	sn.sketches = sketches
}

// buildQuant materializes the quantized row store opts asks for (nil for
// QuantizeNone).
func buildQuant(opts Options, data *vec.Matrix) *vec.QuantizedMatrix {
	if opts.Quantize != QuantizeSQ8 || data.N == 0 {
		return nil
	}
	return vec.QuantizeSQ8Rows(data.N, data.D, data.Row)
}

// loadSnap returns the current read view.
func (ix *Index) loadSnap() *snapshot { return ix.snap.Load() }

// publish installs sn as the next snapshot. Caller holds ix.mu.
func (ix *Index) publish(sn *snapshot) {
	sn.epoch = ix.snap.Load().epoch + 1
	sn.opts = ix.opts
	ix.snap.Store(sn)
	metEpoch.Set(int64(sn.epoch))
}

// Build constructs the index over data. The rng drives every random choice
// (partition directions, hash draws), so the same seed reproduces the same
// index — the mechanism the experiments use to sample the projection
// variance r1.
func Build(data *vec.Matrix, opts Options, rng *xrand.RNG) (*Index, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if data.N == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}

	// Level 1: partition.
	var (
		tree    *rptree.Tree
		km      *kmeans.Model
		members [][]int
	)
	switch opts.Partitioner {
	case PartitionNone:
		all := make([]int, data.N)
		for i := range all {
			all[i] = i
		}
		members = [][]int{all}
	case PartitionRPTree:
		var asg *rptree.Assignment
		tree, asg = rptree.Build(data, rptree.Options{
			Rule:        opts.RPRule,
			Leaves:      opts.Groups,
			MinLeafSize: opts.MinGroupSize,
		}, rng.Split(1))
		members = asg.Members
	case PartitionKMeans:
		var asg *kmeans.Assignment
		km, asg = kmeans.Build(data, kmeans.Options{K: opts.Groups}, rng.Split(1))
		members = asg.Members
	default:
		return nil, fmt.Errorf("core: unknown partitioner %v", opts.Partitioner)
	}

	// Hamming plane: one global sketcher, every row sketched once. The
	// split label 3 is fresh, so Euclidean builds draw exactly the streams
	// they always did.
	var (
		sk       *lshfunc.Sketcher
		sketches *vec.BinaryMatrix
	)
	if opts.Metric == MetricHamming {
		var err error
		sk, err = lshfunc.NewSketcher(data.D, opts.Bits, rng.Split(3))
		if err != nil {
			return nil, err
		}
		sketches = sk.SketchAll(data)
	}

	// Level 2: per-group LSH tables. Splitting advances grng, so every
	// group's stream is drawn here, in group order, before the groups are
	// built in whatever order the workers reach them.
	grng := rng.Split(2)
	rngs := make([]*xrand.RNG, len(members))
	for gi := range members {
		rngs[gi] = grng.Split(int64(gi))
	}
	groups := make([]*group, len(members))
	err := forEachGroup(members, func(s *hashScratch, gi int) error {
		g, err := buildGroup(data, sketches, members[gi], opts, rngs[gi], s)
		if err != nil {
			return fmt.Errorf("core: group %d: %w", gi, err)
		}
		groups[gi] = g
		return nil
	})
	if err != nil {
		return nil, err
	}
	ix := newIndex(opts, data, buildQuant(opts, data), tree, km, groups)
	ix.attachHamming(sk, sketches)
	return ix, nil
}

// forEachGroup runs build(s, gi) once for every level-1 group, on
// min(GOMAXPROCS, groups) goroutines that claim groups largest first, and
// returns when all of them have. The groups share nothing (Section IV-A3:
// each cell has its own W, family and tables), so build may write only what
// belongs to group gi; s is the calling worker's scratch. A failure stops
// further claims — groups already being built run to their end — and of
// the errors returned the one with the lowest group index is reported.
func forEachGroup(members [][]int, build func(s *hashScratch, gi int) error) error {
	order := make([]int, len(members))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmp.Compare(len(members[b]), len(members[a]))
	})

	var (
		next atomic.Int64 // position in order of the next unclaimed group
		wg   sync.WaitGroup
		errs = make([]error, len(members))
	)
	for w := min(runtime.GOMAXPROCS(0), len(members)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s hashScratch
			for {
				i := int(next.Add(1)) - 1
				if i >= len(order) {
					return
				}
				gi := order[i]
				if errs[gi] = build(&s, gi); errs[gi] != nil {
					next.Store(int64(len(order))) // no claim succeeds from here on
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// hashScratch is the reusable state of group.appendKeys and the keys it
// fills: one per build worker (with it, hashing a group allocates per
// table, not per row), one for Insert and one inside every query scratch.
type hashScratch struct {
	proj []float64
	code []int32
	mp   multiprobe.Scratch
	keys []byte // keys back to back: a table's rows, an insert's overlay key or a table's probe block
}

func buildGroup(data *vec.Matrix, sketches *vec.BinaryMatrix, members []int, opts Options, rng *xrand.RNG, s *hashScratch) (*group, error) {
	g := &group{members: members}

	if opts.Metric == MetricHamming {
		return buildHammingGroup(g, sketches, opts, rng, s)
	}

	// Per-group bucket width: either the global W, or tuned from the
	// group's own distance distribution and scaled by W (Section IV-A3:
	// "we may choose different LSH parameters ... that are optimal for
	// each cell").
	w := opts.Params.W
	if opts.AutoTuneW && len(members) >= 2 {
		// TuneTargetRecall is the combined recall over all L tables; a
		// k-th neighbor must collide in at least one table, so the
		// per-table collision target is q = 1 − (1−R)^(1/L).
		perTable := 1 - math.Pow(1-opts.TuneTargetRecall, 1/float64(opts.Params.L))
		if perTable <= 0 {
			perTable = 1e-6
		}
		if perTable >= 1 {
			perTable = 1 - 1e-6
		}
		est, err := tuner.EstimateW(data, members, opts.TuneK, opts.Params.M,
			perTable, tuner.Config{}, rng.Split(100))
		if err != nil {
			return nil, err
		}
		if est.W > 0 && est.Samples > 0 {
			w = est.W * opts.Params.W
		}
	}
	g.w = w

	params := opts.Params
	params.W = w
	fam, err := lshfunc.NewFamily(data.D, params, rng.Split(101))
	if err != nil {
		return nil, err
	}
	g.fam = fam

	g.lat, err = newLattice(opts.Lattice, params.M)
	if err != nil {
		return nil, err
	}

	if err := g.buildTables(s, members, func(i int) []float32 { return data.Row(members[i]) }); err != nil {
		return nil, err
	}

	if opts.ProbeMode == ProbeHierarchy {
		if err := buildGroupHierarchies(g, opts); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// appendKeys appends to dst the keys of the n buckets of table t that v
// most likely shares with its neighbors, most likely first: the bucket v
// hashes to and, for n > 1, the rest of its multi-probe sequence
// (multiprobe.ProbesInto). It is the one "project, decode, key" chain
// behind Build, Compact, the out-of-core build, Insert and the probe loop,
// so none of them can hash a vector differently.
func (g *group) appendKeys(dst []byte, t int, v []float32, n int, s *hashScratch) []byte {
	if m := g.fam.M(); len(s.proj) != m {
		s.proj = make([]float64, m)
	}
	g.fam.Project(t, v, s.proj)
	if n == 1 {
		s.code = g.lat.DecodeInto(s.code, s.proj)
		return lattice.AppendKey(dst, s.code)
	}
	multiprobe.ProbesInto(&s.mp, g.lat, s.proj, n)
	return lattice.AppendKey(dst, s.mp.Codes())
}

// buildTables hashes the group's rows into its L tables with the group's
// family and lattice: row(i) is the vector stored under ids[i]. A table's
// keys are written back to back into the worker's scratch and handed to
// the table as one flat buffer, so nothing is allocated per row.
func (g *group) buildTables(s *hashScratch, ids []int, row func(i int) []float32) error {
	keyLen := 4 * g.lat.CodeLen()
	s.keys = slices.Grow(s.keys[:0], len(ids)*keyLen)
	g.tables = make([]*lshtable.Table, g.fam.L())
	for t := range g.tables {
		keys := s.keys[:0]
		for i := range ids {
			keys = g.appendKeys(keys, t, row(i), 1, s)
		}
		tab, err := buildTable(keys, keyLen, ids)
		if err != nil {
			return fmt.Errorf("table %d: %w", t, err)
		}
		g.tables[t] = tab
	}
	return nil
}

// buildHammingGroup builds one group's bit-sampling tables over the global
// sketch matrix. The split label 102 matches the Euclidean path's spacing
// (100 tuner, 101 family), so group streams stay disjoint.
func buildHammingGroup(g *group, sketches *vec.BinaryMatrix, opts Options, rng *xrand.RNG, s *hashScratch) (*group, error) {
	g.w = opts.Params.W // no bucket width in Hamming space; kept for reports
	bs, err := lshfunc.NewBitSampler(opts.Bits, opts.Params.M, opts.Params.L, rng.Split(102))
	if err != nil {
		return nil, err
	}
	g.bsamp = bs

	s.keys = slices.Grow(s.keys[:0], len(g.members)*bs.KeyLen())
	g.tables = make([]*lshtable.Table, opts.Params.L)
	for t := range g.tables {
		keys := s.keys[:0]
		for _, id := range g.members {
			keys = bs.AppendKey(keys, t, sketches.Row(id))
		}
		tab, err := buildTable(keys, bs.KeyLen(), g.members)
		if err != nil {
			return nil, err
		}
		g.tables[t] = tab
	}
	return g, nil
}

// newLattice constructs the level-2 quantizer for a group.
func newLattice(kind LatticeKind, m int) (lattice.Lattice, error) {
	switch kind {
	case LatticeZM:
		return lattice.NewZM(m), nil
	case LatticeE8:
		return lattice.NewE8(m), nil
	case LatticeDn:
		return lattice.NewDn(m), nil
	default:
		return nil, fmt.Errorf("unknown lattice %v", kind)
	}
}

// buildGroupHierarchies (re)constructs one group's bucket hierarchies over
// its current tables.
func buildGroupHierarchies(g *group, opts Options) error {
	switch lat := g.lat.(type) {
	case *lattice.ZM:
		g.mortonH = make([]*hierarchy.Morton, len(g.tables))
		g.e8H = nil
		for t, tab := range g.tables {
			h, err := hierarchy.NewMorton(tab, opts.Params.M, opts.MortonBits)
			if err != nil {
				return err
			}
			g.mortonH[t] = h
		}
	default:
		// E8 and D_n share the explicit lattice hierarchy.
		g.e8H = make([]*hierarchy.E8Tree, len(g.tables))
		g.mortonH = nil
		for t, tab := range g.tables {
			h, err := hierarchy.NewE8Tree(tab, lat)
			if err != nil {
				return err
			}
			g.e8H[t] = h
		}
	}
	return nil
}

// buildHierarchies runs buildGroupHierarchies over a group set.
func buildHierarchies(groups []*group, opts Options) error {
	for gi, g := range groups {
		if err := buildGroupHierarchies(g, opts); err != nil {
			return fmt.Errorf("core: group %d hierarchy: %w", gi, err)
		}
	}
	return nil
}

// N returns the number of base (compacted) items; overlay inserts join the
// base on the next Compact.
func (ix *Index) N() int { return ix.loadSnap().data.N }

// Dim returns the vector dimensionality.
func (ix *Index) Dim() int { return ix.loadSnap().data.D }

// Options returns the (filled) build options.
func (ix *Index) Options() Options { return ix.opts }

// ConfigureDynamic sets the runtime overlay knobs — the memtable seal
// threshold and the auto-compact segment trigger — which are not part of
// the serialized index format and so need re-supplying after ReadIndex /
// OpenDisk. Non-positive arguments keep the current values. Call during
// setup, before the index is shared with other goroutines.
func (ix *Index) ConfigureDynamic(memtableThreshold, autoCompactSegments int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if memtableThreshold > 0 {
		ix.opts.MemtableThreshold = memtableThreshold
	}
	if autoCompactSegments > 0 {
		ix.opts.AutoCompactSegments = autoCompactSegments
	}
}

// SetQuantize switches the resident row-store representation the
// short-list scan reads, rebuilding (or dropping) the quantized code
// matrix and publishing a new snapshot. factor sizes the exact re-rank
// shortlist (k×factor; non-positive keeps the current value). The
// quantization pass reads every base row — on a disk-backed index that is
// one streaming sweep over the row file — so call it at setup time, not on
// the query path. Overlay rows are unaffected (they always rank exactly)
// and the next Compact folds them into the rebuilt code matrix.
func (ix *Index) SetQuantize(kind QuantizeKind, factor int) error {
	switch kind {
	case QuantizeNone, QuantizeSQ8:
	default:
		return fmt.Errorf("core: unknown quantize kind %d", int(kind))
	}
	if ix.opts.Metric == MetricHamming && kind != QuantizeNone {
		return fmt.Errorf("core: quantization applies to float rows; Hamming sketches are already 1 bit/plane")
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.opts.Quantize = kind
	if factor > 0 {
		ix.opts.RerankFactor = factor
	}
	src := ix.loadSnap()
	next := src.clone()
	next.quant = buildQuant(ix.opts, src.data)
	ix.publish(next)
	return nil
}

// Epoch returns the current snapshot epoch. It increases by one each time
// a new read view is published (memtable seal, Compact, hierarchy
// rebuild) and is monotone over the index's lifetime.
func (ix *Index) Epoch() uint64 { return ix.loadSnap().epoch }

// NumGroups returns the number of level-1 partitions.
func (ix *Index) NumGroups() int { return len(ix.loadSnap().groups) }

// GroupOf routes a vector through level 1.
func (ix *Index) GroupOf(v []float32) int { return ix.loadSnap().groupOf(v) }

// Tree returns the level-1 random projection tree, or nil when the index
// was not built with PartitionRPTree. The cluster router reuses it as the
// shard map: the tree partitions the data, so the leaves a query probes
// name the shards that can hold its neighbors (see internal/router and
// docs/sharding.md). The returned tree is part of the published snapshot
// and must not be mutated.
func (ix *Index) Tree() *rptree.Tree { return ix.loadSnap().tree }

// GroupMembers returns a copy of group g's base member ids (overlay
// inserts are not included; Compact folds them in). Shard splitting uses
// this to extract each leaf's rows.
func (ix *Index) GroupMembers(g int) []int {
	sn := ix.loadSnap()
	return append([]int(nil), sn.groups[g].members...)
}

// Vector returns a copy of row id's vector, or nil when id is out of the
// dense id space. Tombstoned rows still return their vector; pair with
// Describe/Len for liveness if it matters.
func (ix *Index) Vector(id int) []float32 {
	sn := ix.loadSnap()
	if id < 0 || id >= sn.total() {
		return nil
	}
	return append([]float32(nil), sn.row(id)...)
}

// GroupW returns group g's effective bucket width (for reports).
func (ix *Index) GroupW(g int) float64 { return ix.loadSnap().groups[g].w }

// GroupSize returns the number of items in group g, including overlay
// inserts routed to it.
func (ix *Index) GroupSize(g int) int {
	sn := ix.loadSnap()
	n := len(sn.groups[g].members)
	if sn.hasOverlay() {
		n += sn.overlayGroupCounts()[g]
	}
	return n
}

// TableSummary aggregates bucket statistics across all groups and tables.
func (ix *Index) TableSummary() lshtable.Stats {
	sn := ix.loadSnap()
	var out lshtable.Stats
	var mass, items float64
	for _, g := range sn.groups {
		for _, tab := range g.tables {
			s := tab.Summary()
			out.Buckets += s.Buckets
			out.Items += s.Items
			if s.MaxBucket > out.MaxBucket {
				out.MaxBucket = s.MaxBucket
			}
			mass += s.CollisionMass * float64(s.Items)
			items += float64(s.Items)
		}
	}
	if out.Buckets > 0 {
		out.MeanBucket = float64(out.Items) / float64(out.Buckets)
	}
	if items > 0 {
		out.CollisionMass = mass / items
	}
	return out
}
