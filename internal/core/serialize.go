package core

import (
	"errors"
	"fmt"
	"io"

	"bilsh/internal/kmeans"
	"bilsh/internal/lshfunc"
	"bilsh/internal/lshtable"
	"bilsh/internal/rptree"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
)

// Index file layout (all sections tagged, see internal/wire):
//
//	bilsh.Index/2
//	  options (the v1 block followed by Quantize and RerankFactor)
//	  data matrix (the index is self-contained)
//	  quantized row store (presence flag + SQ8 code matrix)
//	  partitioner (none | rptree | kmeans)
//	  groups: members, width, family, L tables
//
// The cuckoo bucket indexes and the hierarchies are derived state and
// are rebuilt on load, which keeps the file format independent of their
// in-memory representation. The paged disk layout (disklayout.go) stores
// the same options, partitioner and per-group hash functions through the
// same codec below, with the arrays laid out for mapping instead. Dynamic
// runtime knobs (memtable threshold, auto-compact) are deliberately not
// part of the format; they are re-supplied at load time.
//
// Version 4 ("bilsh.Index/4"; /3 belongs to the paged disk layout, see
// disklayout.go) carries the Hamming metric family: the option block gains
// Metric and Bits, a Hamming section (hyperplane sketcher + packed sketch
// matrix) follows the quantized-rows section, and each group stores a bit
// sampler in place of the p-stable family. WriteTo only emits v4 when the
// metric is non-Euclidean, so every Euclidean index keeps writing v2
// byte-identically.
//
// Version 1 files predate the quantization fields; only Upgrade reads
// them (upgrade.go).
const (
	indexMagic   = "bilsh.Index/2"
	indexMagicV4 = "bilsh.Index/4"
)

// WriteTo serializes the index (including its data) to w. It returns the
// number of bytes written. The snapshot current at the time of the call is
// written; concurrent mutations do not corrupt the output, but WriteTo
// refuses snapshots with pending overlay state (Compact first). Rows and
// postings are written by external id, un-permuted as they stream, so the
// file does not depend on the order the index stores its rows in.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	sn := ix.loadSnap()
	if err := sn.requireClean(); err != nil {
		return 0, err
	}
	ww := wire.NewWriter(w)
	if ix.opts.Metric == MetricEuclidean {
		ww.Magic(indexMagic)
	} else {
		ww.Magic(indexMagicV4)
	}
	writeOptions(ww, ix.opts)
	if ix.opts.Metric != MetricEuclidean {
		// v4 extends the v2 option block in place.
		ww.Int(int(ix.opts.Metric))
		ww.Int(ix.opts.Bits)
	}
	sn.data.EncodeRows(ww, sn.pos)
	writeQuant(ww, sn.quant, sn.pos)
	if ix.opts.Metric == MetricHamming {
		sn.sketcher.Encode(ww)
		sn.sketches.EncodeRows(ww, sn.pos)
	}
	writeStructure(ww, sn.level1, sn.groups, sn.ext)
	if err := ww.Flush(); err != nil {
		return ww.BytesWritten(), fmt.Errorf("core: writing index: %w", err)
	}
	return ww.BytesWritten(), nil
}

// ErrDirtyIndex is returned by WriteTo and WriteDiskTo when the index has
// pending overlay inserts or deletes: the wire format holds only the base
// plane, so serializing now would silently drop acked mutations. Call
// Compact first (or serve the index through a durable data directory,
// whose checkpoints do exactly that). The server maps this error to HTTP
// 409 on POST /save.
var ErrDirtyIndex = errors.New("core: index has pending inserts/deletes; call Compact before writing")

// requireClean refuses serialization with pending dynamic state.
func (sn *snapshot) requireClean() error {
	if sn.hasOverlay() || sn.dead.count() > 0 {
		return ErrDirtyIndex
	}
	return nil
}

// writeOptions emits the v2 option block: the v1 flat fields followed by
// the quantization knobs.
func writeOptions(ww *wire.Writer, o Options) {
	ww.Int(int(o.Lattice))
	ww.Int(int(o.Partitioner))
	ww.Int(o.Groups)
	ww.Int(int(o.RPRule))
	ww.Int(o.Params.M)
	ww.Int(o.Params.L)
	ww.F64(o.Params.W)
	ww.Int(int(o.ProbeMode))
	ww.Int(o.Probes)
	ww.Bool(o.AutoTuneW)
	ww.Int(o.TuneK)
	ww.F64(o.TuneTargetRecall)
	ww.Int(o.MortonBits)
	ww.Int(o.HierMinCandidates)
	ww.Int(o.MinGroupSize)
	ww.Int(int(o.Quantize))
	ww.Int(o.RerankFactor)
}

// writeQuant emits the optional quantized row store section (a presence
// flag, so an SQ8 index whose code matrix is empty round-trips cleanly),
// its code rows in the order order lists (nil: as stored).
func writeQuant(ww *wire.Writer, qm *vec.QuantizedMatrix, order []int32) {
	ww.Bool(qm != nil)
	if qm != nil {
		qm.EncodeRows(ww, order)
	}
}

// readQuant parses the quantized row store section written by writeQuant
// and checks its shape against the data matrix.
func readQuant(rr *wire.Reader, n, d int) (*vec.QuantizedMatrix, error) {
	has := rr.Bool()
	if err := rr.Err(); err != nil {
		return nil, fmt.Errorf("core: reading quant flag: %w", err)
	}
	if !has {
		return nil, nil
	}
	qm, err := vec.DecodeQuantizedMatrix(rr)
	if err != nil {
		return nil, fmt.Errorf("core: reading quantized rows: %w", err)
	}
	if qm.N != n || qm.D != d {
		return nil, fmt.Errorf("core: quantized rows %dx%d do not match data %dx%d", qm.N, qm.D, n, d)
	}
	return qm, nil
}

// writePartitioner emits the level-1 partitioner section: its kind, then
// its model. Both layouts write it.
func writePartitioner(ww *wire.Writer, l1 level1) {
	switch {
	case l1.tree != nil:
		ww.String("rptree")
		l1.tree.Encode(ww)
	case l1.km != nil:
		ww.String("kmeans")
		l1.km.Encode(ww)
	default:
		ww.String("none")
	}
}

// readPartitioner parses the section writePartitioner emits.
func readPartitioner(rr *wire.Reader) (l1 level1, err error) {
	switch kind := rr.String(); kind {
	case "rptree":
		if l1.tree, err = rptree.DecodeTree(rr); err != nil {
			err = fmt.Errorf("rptree: %w", err)
		}
	case "kmeans":
		if l1.km, err = kmeans.DecodeModel(rr); err != nil {
			err = fmt.Errorf("kmeans: %w", err)
		}
	case "none":
	default:
		if err = rr.Err(); err == nil {
			err = fmt.Errorf("unknown partitioner section %q", kind)
		}
	}
	return l1, err
}

// writeGroupHash emits a group's hash functions. The section is
// self-tagged (family vs bit sampler), so readers recover the right
// decoder from the group itself.
func writeGroupHash(ww *wire.Writer, g *group) {
	if g.bsamp != nil {
		g.bsamp.Encode(ww)
	} else {
		g.fam.Encode(ww)
	}
}

// readGroupHash parses the section writeGroupHash emits into g: a bit
// sampler of the options' shape under MetricHamming, else a p-stable
// family and the options' lattice. A lshfunc.Family/1 family is refused
// with ErrLegacyFormat unless legacy is set; then its directions are
// rounded to binary16 and rounded reports that the group's stored tables
// must be hashed again (rehashGroups).
func readGroupHash(rr *wire.Reader, o Options, g *group, legacy bool) (rounded bool, err error) {
	if o.Metric != MetricHamming {
		g.fam, rounded, err = lshfunc.DecodeFamily(rr, legacy)
		if errors.Is(err, lshfunc.ErrLegacyFamily) {
			return false, legacyFormat("lshfunc.Family/1 hash family")
		}
		if err != nil {
			return false, fmt.Errorf("family: %w", err)
		}
		g.lat, err = newLattice(o.Lattice, o.Params.M)
		return rounded, err
	}
	bs, err := lshfunc.DecodeBitSampler(rr)
	if err != nil {
		return false, fmt.Errorf("bit sampler: %w", err)
	}
	if bs.Bits() != o.Bits || bs.M() != o.Params.M || bs.L() != o.Params.L {
		return false, fmt.Errorf("sampler shape (bits=%d M=%d L=%d) does not match options (bits=%d M=%d L=%d)",
			bs.Bits(), bs.M(), bs.L(), o.Bits, o.Params.M, o.Params.L)
	}
	g.bsamp = bs
	return false, nil
}

// rehashGroups rebuilds every p-stable group's tables from the rows
// through buildTables, as Build builds them. It converts a structure whose
// families were read from lshfunc.Family/1 sections and rounded: the
// tables stored beside them were hashed under the float32 directions.
// Members, widths, offsets and the partitioner stay as read.
func rehashGroups(groups []*group, data *vec.Matrix) error {
	members := make([][]int, len(groups))
	for gi, g := range groups {
		members[gi] = g.members
	}
	return forEachGroup(members, func(s *hashScratch, gi int) error {
		g := groups[gi]
		if g.fam == nil {
			return nil
		}
		if err := g.buildTables(s, g.members, func(i int) []float32 { return data.Row(g.members[i]) }); err != nil {
			return fmt.Errorf("core: group %d: %w", gi, err)
		}
		return nil
	})
}

// writeStructure emits the partitioner and the per-group machinery, each
// posting p written as ext[p] (ext nil: as stored).
func writeStructure(ww *wire.Writer, l1 level1, groups []*group, ext []int) {
	writePartitioner(ww, l1)
	ww.Int(len(groups))
	for _, g := range groups {
		ww.Ints(g.members)
		ww.F64(g.w)
		writeGroupHash(ww, g)
		ww.Int(len(g.tables))
		for _, tab := range g.tables {
			tab.EncodeVia(ww, ext)
		}
	}
}

// readOptions parses the option block. version is the container format
// version (from the magic): v1 files predate the quantization knobs, which
// default to none / defaultRerankFactor so old indexes query exactly as
// they did when written.
func readOptions(rr *wire.Reader, version int) (Options, error) {
	var o Options
	o.Lattice = LatticeKind(rr.Int())
	o.Partitioner = PartitionerKind(rr.Int())
	o.Groups = rr.Int()
	o.RPRule = rptree.Rule(rr.Int())
	o.Params.M = rr.Int()
	o.Params.L = rr.Int()
	o.Params.W = rr.F64()
	o.ProbeMode = ProbeMode(rr.Int())
	o.Probes = rr.Int()
	o.AutoTuneW = rr.Bool()
	o.TuneK = rr.Int()
	o.TuneTargetRecall = rr.F64()
	o.MortonBits = rr.Int()
	o.HierMinCandidates = rr.Int()
	o.MinGroupSize = rr.Int()
	if version >= 2 {
		o.Quantize = QuantizeKind(rr.Int())
		o.RerankFactor = rr.Int()
	} else {
		o.Quantize = QuantizeNone
		o.RerankFactor = defaultRerankFactor
	}
	if version >= 4 {
		o.Metric = MetricKind(rr.Int())
		o.Bits = rr.Int()
	}
	if err := rr.Err(); err != nil {
		return o, fmt.Errorf("core: reading options: %w", err)
	}
	// Validate every decoded field, not just Params: a corrupt or hostile
	// file must not smuggle an out-of-range ProbeMode or a negative
	// Probes/Groups/MortonBits/HierMinCandidates into a live index.
	if err := o.Validate(); err != nil {
		return o, fmt.Errorf("core: decoded options invalid: %w", err)
	}
	return o, nil
}

// checkShapes refuses a decoded structure that a query would trip over:
// level 1 must route every d-dimensional vector to one of the groups,
// and every group's family must hash such a vector into the options'
// M-dimensional codes for L tables. Both layouts' readers run it.
func checkShapes(o Options, d int, l1 level1, groups []*group) error {
	if tree := l1.tree; tree != nil && (tree.Dim() != d || tree.NumLeaves() != len(groups)) {
		return fmt.Errorf("core: tree of dim %d with %d leaves does not route %d-dim rows to %d groups",
			tree.Dim(), tree.NumLeaves(), d, len(groups))
	}
	if km := l1.km; km != nil && (km.Centroids.D != d || km.K() != len(groups)) {
		return fmt.Errorf("core: %d centroids of dim %d do not route %d-dim rows to %d groups",
			km.K(), km.Centroids.D, d, len(groups))
	}
	for gi, g := range groups {
		if g.fam != nil && (g.fam.D() != d || g.fam.M() != o.Params.M || g.fam.L() != o.Params.L) {
			return fmt.Errorf("core: group %d family shape (d=%d M=%d L=%d) does not match rows d=%d / options M=%d L=%d",
				gi, g.fam.D(), g.fam.M(), g.fam.L(), d, o.Params.M, o.Params.L)
		}
	}
	return nil
}

// readStructure parses the partitioner and groups and rebuilds the
// tables' cuckoo indexes; the caller builds the hierarchies. Every member
// and every posting must name one of data's rows, and the structure must
// fit their dimension (checkShapes). legacy admits lshfunc.Family/1
// families, whose groups are hashed again from data (rehashGroups).
func readStructure(rr *wire.Reader, o Options, data *vec.Matrix, legacy bool) (level1, []*group, error) {
	n, d := data.N, data.D
	l1, err := readPartitioner(rr)
	if err != nil {
		return level1{}, nil, fmt.Errorf("core: reading partitioner: %w", err)
	}
	nGroups := rr.Int()
	if err := rr.Err(); err != nil {
		return level1{}, nil, err
	}
	if nGroups < 1 || nGroups > 1<<20 {
		return level1{}, nil, fmt.Errorf("core: decoded group count %d implausible", nGroups)
	}
	groups := make([]*group, nGroups)
	rounded := false
	for gi := range groups {
		g := &group{
			members: rr.Ints(),
			w:       rr.F64(),
		}
		r, err := readGroupHash(rr, o, g, legacy)
		if err != nil {
			return level1{}, nil, fmt.Errorf("core: group %d %w", gi, err)
		}
		rounded = rounded || r
		nTables := rr.Int()
		if err := rr.Err(); err != nil {
			return level1{}, nil, err
		}
		if nTables != o.Params.L {
			return level1{}, nil, fmt.Errorf("core: group %d has %d tables, options say %d", gi, nTables, o.Params.L)
		}
		g.tables = make([]*lshtable.Table, nTables)
		for t := range g.tables {
			tab, err := lshtable.DecodeTable(rr, n)
			if err != nil {
				return level1{}, nil, fmt.Errorf("core: group %d table %d: %w", gi, t, err)
			}
			g.tables[t] = tab
		}
		for _, id := range g.members {
			if id < 0 || id >= n {
				return level1{}, nil, fmt.Errorf("core: group %d references row %d of %d", gi, id, n)
			}
		}
		groups[gi] = g
	}
	if err := rr.Err(); err != nil {
		return level1{}, nil, err
	}
	if err := checkShapes(o, d, l1, groups); err != nil {
		return level1{}, nil, err
	}
	if rounded {
		if err := rehashGroups(groups, data); err != nil {
			return level1{}, nil, err
		}
	}
	return l1, groups, nil
}

// ReadIndex deserializes an index written by WriteTo (bilsh.Index/2 or
// /4). The rows and each table's keys, intervals and ids are adopted as
// read and then put into leaf order in place (adoptLeafOrder), so the
// loader never holds two copies of its rows; only the derived structures
// are built: each table's cuckoo bucket index and, under ProbeHierarchy,
// the hierarchies. A version 1 file, or one whose hash families are
// lshfunc.Family/1 sections, is refused with ErrLegacyFormat.
func ReadIndex(r io.Reader) (*Index, error) { return readWire(wire.NewReader(r), false) }

// readWire decodes a wire image; legacy admits version 1 and
// lshfunc.Family/1 families, which only Upgrade reads.
func readWire(rr *wire.Reader, legacy bool) (*Index, error) {
	var version int
	switch got := rr.String(); got {
	case indexMagicV1:
		if !legacy {
			return nil, legacyFormat(got)
		}
		version = 1
	case indexMagic:
		version = 2
	case indexMagicV4:
		version = 4
	default:
		if err := rr.Err(); err != nil {
			return nil, fmt.Errorf("core: reading index magic: %w", err)
		}
		return nil, fmt.Errorf("core: expected section %q, found %q", indexMagic, got)
	}
	o, err := readOptions(rr, version)
	if err != nil {
		return nil, err
	}
	data, err := vec.DecodeMatrix(rr)
	if err != nil {
		return nil, fmt.Errorf("core: reading data: %w", err)
	}
	var quant *vec.QuantizedMatrix
	if version >= 2 {
		if quant, err = readQuant(rr, data.N, data.D); err != nil {
			return nil, err
		}
	}
	var (
		sk       *lshfunc.Sketcher
		sketches *vec.BinaryMatrix
	)
	if o.Metric == MetricHamming {
		if sk, err = lshfunc.DecodeSketcher(rr); err != nil {
			return nil, fmt.Errorf("core: reading sketcher: %w", err)
		}
		if sketches, err = vec.DecodeBinaryMatrix(rr); err != nil {
			return nil, fmt.Errorf("core: reading sketches: %w", err)
		}
		if sk.D() != data.D || sk.Bits() != o.Bits {
			return nil, fmt.Errorf("core: sketcher (d=%d bits=%d) does not match data d=%d / options bits=%d",
				sk.D(), sk.Bits(), data.D, o.Bits)
		}
		if sketches.N != data.N || sketches.Bits != o.Bits {
			return nil, fmt.Errorf("core: sketches %dx%d do not match data rows %d / options bits %d",
				sketches.N, sketches.Bits, data.N, o.Bits)
		}
	}
	l1, groups, err := readStructure(rr, o, data, legacy)
	if err != nil {
		return nil, err
	}
	ix := newIndex(o, data, quant, l1, groups)
	ix.attachHamming(sk, sketches)
	if err := ix.loadSnap().adoptLeafOrder(); err != nil {
		return nil, err
	}
	if err := buildHierarchies(groups, o); err != nil {
		return nil, err
	}
	return ix, nil
}
