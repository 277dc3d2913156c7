package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"bilsh/internal/chunk"
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
// a lock. Writers (Insert, Delete, Compact, SetQuantize) serialize on a
// short-held mutex; Compact additionally builds its new base outside
// the mutex, so reads and writes keep flowing while it works. See
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
	// compaction's phase 2 or a query.
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
// reachable from a published snapshot are immutable; Compact builds
// replacement groups and publishes a new snapshot.
type group struct {
	// members lists the group's base rows by external id, ascending. In a
	// leaf-ordered snapshot they are the rows at positions [lo,
	// lo+len(members)), and members is that block's view of the snapshot's
	// ext; the tables post positions.
	members []int
	lo      int
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
func newIndex(opts Options, data *vec.Matrix, quant *vec.QuantizedMatrix, l1 level1, groups []*group) *Index {
	ix := &Index{opts: opts}
	ix.snap.Store(&snapshot{
		epoch: 1, opts: opts,
		data: data, quant: quant, level1: l1, groups: groups,
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
// QuantizeNone) over rows stored in the order pos gives (pos[id] is the
// position of external id id; nil for input order), exactly as it would
// over the rows in id order.
func buildQuant(opts Options, data *vec.Matrix, pos []int32) *vec.QuantizedMatrix {
	if opts.Quantize != QuantizeSQ8 || data.N == 0 {
		return nil
	}
	return vec.QuantizeSQ8Order(data, pos)
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
// variance r1. The index keeps its own copy of the rows, in level-1 leaf
// order (layout.go); data is only read, and ids are data's row numbers.
func Build(data *vec.Matrix, opts Options, rng *xrand.RNG) (*Index, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if data.N == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	l1, members, err := partition(data, opts, rng, 1)
	if err != nil {
		return nil, err
	}

	// Hamming plane: one global sketcher, every row sketched once. The
	// split label 3 is fresh, so Euclidean builds draw exactly the streams
	// they always did.
	var (
		sk       *lshfunc.Sketcher
		sketches *vec.BinaryMatrix
	)
	if opts.Metric == MetricHamming {
		sk, err = lshfunc.NewSketcher(data.D, opts.Bits, rng.Split(3))
		if err != nil {
			return nil, err
		}
		sketches = sk.SketchAll(data)
	}

	// Level 2: per-group LSH tables, every group's stream drawn before the
	// groups are built in whatever order the workers reach them.
	rngs := groupStreams(rng.Split(2), len(members))
	groups := make([]*group, len(members))
	err = forEachGroup(members, func(s *hashScratch, gi int) error {
		g, err := buildGroup(data, sketches, members[gi], opts, rngs[gi], s)
		if err != nil {
			return fmt.Errorf("core: group %d: %w", gi, err)
		}
		g.members = members[gi]
		groups[gi] = g
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Leaf order last, once the hashing's working memory is garbage: the
	// copy of the rows is made after it, not beside it.
	order, err := layOut(groups, data.N)
	if err != nil {
		return nil, err
	}
	rows := order.gather(data)
	if sketches != nil && order.ext != nil {
		permuteRows(sketches.Words, sketches.WordsPerRow(), order.ext)
	}
	ix := newIndex(opts, rows, buildQuant(opts, rows, order.pos), l1, groups)
	ix.attachHamming(sk, sketches)
	ix.loadSnap().rowOrder = order // before the index is shared, like attachHamming
	return ix, nil
}

// level1 is an index's level-1 partitioner: an RP-tree, a k-means model,
// or neither (PartitionNone: one group holds every row).
type level1 struct {
	tree *rptree.Tree
	km   *kmeans.Model
}

// partition builds the level-1 partitioner opts names over data and
// returns it with each group's rows. The RP-tree and k-means draw from
// rng.Split(label); PartitionNone draws nothing, so rng is left as it was.
func partition(data *vec.Matrix, opts Options, rng *xrand.RNG, label int64) (level1, [][]int, error) {
	switch opts.Partitioner {
	case PartitionNone:
		all := make([]int, data.N)
		for i := range all {
			all[i] = i
		}
		return level1{}, [][]int{all}, nil
	case PartitionRPTree:
		tree, asg := rptree.Build(data, rptree.Options{
			Rule:        opts.RPRule,
			Leaves:      opts.Groups,
			MinLeafSize: opts.MinGroupSize,
		}, rng.Split(label))
		return level1{tree: tree}, asg.Members, nil
	case PartitionKMeans:
		km, asg := kmeans.Build(data, kmeans.Options{K: opts.Groups}, rng.Split(label))
		return level1{km: km}, asg.Members, nil
	}
	return level1{}, nil, fmt.Errorf("core: unknown partitioner %v", opts.Partitioner)
}

// groupOf routes a vector through level 1.
func (l level1) groupOf(v []float32) int {
	switch {
	case l.tree != nil:
		return l.tree.Leaf(v)
	case l.km != nil:
		return l.km.Assign(v)
	default:
		return 0
	}
}

// groupStreams splits one stream per group from grng, in group order.
// Splitting advances grng, so the streams are drawn before any group is
// built.
func groupStreams(grng *xrand.RNG, groups int) []*xrand.RNG {
	rngs := make([]*xrand.RNG, groups)
	for gi := range rngs {
		rngs[gi] = grng.Split(int64(gi))
	}
	return rngs
}

// forEachGroup runs build(s, gi) once for every level-1 group, on
// min(GOMAXPROCS, groups) workers that claim groups largest first, and
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
	errs := make([]error, len(members))
	chunk.Claim(len(order), runtime.GOMAXPROCS(0), func(_ int, next func() (int, bool)) error {
		var s hashScratch
		for i, ok := next(); ok; i, ok = next() {
			gi := order[i]
			if errs[gi] = build(&s, gi); errs[gi] != nil {
				return errs[gi]
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// hashBlock is how many rows group.hashTables projects per kernel call
// (lshfunc.Family.ProjectBlock): vec.DotRowsManyF16's tile is four
// vectors.
const hashBlock = 4

// hashScratch is the reusable state of group.appendKeys and the keys it
// fills: one per build worker (with it, hashing a group allocates per
// table, not per row), one for Insert and one inside every query scratch.
type hashScratch struct {
	// proj holds projections: one vector's M values in appendKeys, a
	// block's hashBlock·M in a build worker's hashTables.
	proj []float64
	code []int32
	mp   multiprobe.Scratch
	keys []byte // keys back to back: a table's rows, an insert's overlay key or a table's probe block
	// tables orders a build worker's tables from those keys, in memory it
	// keeps from one table to the next.
	tables lshtable.Builder
}

// projScratch returns s.proj resliced to n values, growing it first if
// it is shorter.
func (s *hashScratch) projScratch(n int) []float64 {
	if len(s.proj) < n {
		s.proj = make([]float64, n)
	}
	return s.proj[:n]
}

// buildGroup builds one group of Build over ids, the rows of data it
// holds: its hash (newHashGroup, or bit sampling under MetricHamming), its
// tables, which post ids, and, when the options probe them, its
// hierarchies. The caller sets its members.
func buildGroup(data *vec.Matrix, sketches *vec.BinaryMatrix, ids []int, opts Options, rng *xrand.RNG, s *hashScratch) (*group, error) {
	if opts.Metric == MetricHamming {
		return buildHammingGroup(sketches, ids, opts, rng, s)
	}
	g, err := newHashGroup(data, ids, opts, rng)
	if err != nil {
		return nil, err
	}
	if err := g.buildTables(s, ids, func(i int) []float32 { return data.Row(ids[i]) }); err != nil {
		return nil, err
	}
	return g, buildGroupHierarchies(g, opts)
}

// newHashGroup returns a group, still without members or tables, with its
// own level-2 hash (Section IV-A3: "we may choose different LSH parameters
// ... that are optimal for each cell"): its bucket width, either the
// global W or, under AutoTuneW, tuned on the rows members of data and
// scaled by W; the p-stable family of that width; and the options'
// lattice. The tuner draws from rng.Split(100), the family from
// rng.Split(101). Build tunes on a group's rows, BuildDisk on its rows in
// the sample.
func newHashGroup(data *vec.Matrix, members []int, opts Options, rng *xrand.RNG) (*group, error) {
	w := opts.Params.W
	if opts.AutoTuneW && len(members) >= 2 {
		perTable := tuner.PerTableRecall(opts.TuneTargetRecall, opts.Params.L)
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
	params := opts.Params
	params.W = w
	fam, err := lshfunc.NewFamily(data.D, params, rng.Split(101))
	if err != nil {
		return nil, err
	}
	lat, err := newLattice(opts.Lattice, params.M)
	if err != nil {
		return nil, err
	}
	return &group{fam: fam, lat: lat, w: w}, nil
}

// appendKeys appends to dst the keys of the n buckets of table t that v
// most likely shares with its neighbors, most likely first: the bucket v
// hashes to and, for n > 1, the rest of its multi-probe sequence
// (multiprobe.ProbesInto). It is the one "project, decode, key" chain
// behind Build, Compact, the out-of-core build, Insert and the probe loop,
// so none of them can hash a vector differently.
func (g *group) appendKeys(dst []byte, t int, v []float32, n int, s *hashScratch) []byte {
	proj := s.projScratch(g.fam.M())
	g.fam.Project(t, v, proj)
	return g.appendProjectedKeys(dst, proj, n, s)
}

// appendProjectedKeys is appendKeys from the projection on: proj is the
// vector's projection under the table, and the keys of its n most likely
// buckets are appended to dst. hashTables, which projects a block of rows
// at once, keys each row through here, so decoding and keying have one
// implementation.
func (g *group) appendProjectedKeys(dst []byte, proj []float64, n int, s *hashScratch) []byte {
	if n == 1 {
		s.code = g.lat.DecodeInto(s.code, proj)
		return lattice.AppendKey(dst, s.code)
	}
	multiprobe.ProbesInto(&s.mp, g.lat, proj, n)
	return lattice.AppendKey(dst, s.mp.Codes())
}

// buildTables hashes the group's rows into its L tables with the group's
// family and lattice: row(i) is the vector stored under ids[i].
func (g *group) buildTables(s *hashScratch, ids []int, row func(i int) []float32) error {
	return g.hashTables(s, ids, row, func(_ int, keys []byte, keyLen int) (*lshtable.Table, error) {
		return s.tables.BuildFlat(keys, keyLen, ids)
	})
}

// hashTables sets each of the group's L tables to table(t, keys, keyLen),
// where keys holds the table-t keys of the rows ids, in order: row(i) is
// the vector stored under ids[i]. The keys are written back to back into
// the worker's scratch and handed over as one flat buffer, so nothing is
// allocated per row. Rows are projected hashBlock at a time, each block's
// projection bit for bit the per-row one appendKeys makes, and keyed one
// by one through appendProjectedKeys.
func (g *group) hashTables(s *hashScratch, ids []int, row func(i int) []float32,
	table func(t int, keys []byte, keyLen int) (*lshtable.Table, error)) error {
	keyLen := 4 * g.lat.CodeLen()
	m := g.fam.M()
	proj := s.projScratch(hashBlock * m)
	var block [hashBlock][]float32
	s.keys = slices.Grow(s.keys[:0], len(ids)*keyLen)
	g.tables = make([]*lshtable.Table, g.fam.L())
	for t := range g.tables {
		keys := s.keys[:0]
		for i := 0; i < len(ids); i += hashBlock {
			n := min(hashBlock, len(ids)-i)
			for r := range n {
				block[r] = row(i + r)
			}
			g.fam.ProjectBlock(t, block[:n], proj[:n*m])
			for r := range n {
				keys = g.appendProjectedKeys(keys, proj[r*m:(r+1)*m], 1, s)
			}
		}
		tab, err := table(t, keys, keyLen)
		if err != nil {
			return fmt.Errorf("table %d: %w", t, err)
		}
		g.tables[t] = tab
	}
	return nil
}

// buildHammingGroup builds one group's bit-sampling tables over the rows
// ids of the global sketch matrix. The split label 102 matches the
// Euclidean path's spacing (100 tuner, 101 family), so group streams stay
// disjoint.
func buildHammingGroup(sketches *vec.BinaryMatrix, ids []int, opts Options, rng *xrand.RNG, s *hashScratch) (*group, error) {
	g := &group{w: opts.Params.W} // no bucket width in Hamming space; kept for reports
	bs, err := lshfunc.NewBitSampler(opts.Bits, opts.Params.M, opts.Params.L, rng.Split(102))
	if err != nil {
		return nil, err
	}
	g.bsamp = bs

	s.keys = slices.Grow(s.keys[:0], len(ids)*bs.KeyLen())
	g.tables = make([]*lshtable.Table, opts.Params.L)
	for t := range g.tables {
		keys := s.keys[:0]
		for _, id := range ids {
			keys = bs.AppendKey(keys, t, sketches.Row(id))
		}
		tab, err := s.tables.BuildFlat(keys, bs.KeyLen(), ids)
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
	default:
		return nil, fmt.Errorf("unknown lattice %v", kind)
	}
}

// buildGroupHierarchies (re)constructs one group's bucket hierarchies over
// its current tables, when the options probe them (Options.hierarchical);
// otherwise it leaves the group as it is. Build, BuildDisk, Compact and
// both loaders call it on every group.
func buildGroupHierarchies(g *group, opts Options) error {
	if !opts.hierarchical() {
		return nil
	}
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
	case *lattice.E8:
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
	next.quant = buildQuant(ix.opts, src.data, src.pos)
	ix.publish(next)
	return nil
}

// Epoch returns the current snapshot epoch. It increases by one each time
// a new read view is published (memtable seal, first delete, Compact,
// SetQuantize, a durable index's remap) and is monotone over the index's
// lifetime.
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
	return append([]float32(nil), sn.row(sn.position(id))...)
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
