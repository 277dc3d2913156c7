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
// Hierarchies are derived state and are rebuilt on load, which keeps the
// file format independent of their in-memory representation. The paged
// disk layout (disklayout.go) stores the same options, partitioner and
// per-group hash functions through the same codec below, with the arrays
// laid out for mapping instead. Dynamic runtime knobs (memtable
// threshold, auto-compact) are deliberately not part of the format; they
// are re-supplied at load time.
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
// refuses snapshots with pending overlay state (Compact first).
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
	sn.data.Encode(ww)
	writeQuant(ww, sn.quant)
	if ix.opts.Metric == MetricHamming {
		sn.sketcher.Encode(ww)
		sn.sketches.Encode(ww)
	}
	writeStructure(ww, sn.tree, sn.km, sn.groups)
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
// flag, so an SQ8 index whose code matrix is empty round-trips cleanly).
func writeQuant(ww *wire.Writer, qm *vec.QuantizedMatrix) {
	ww.Bool(qm != nil)
	if qm != nil {
		qm.Encode(ww)
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
func writePartitioner(ww *wire.Writer, tree *rptree.Tree, km *kmeans.Model) {
	switch {
	case tree != nil:
		ww.String("rptree")
		tree.Encode(ww)
	case km != nil:
		ww.String("kmeans")
		km.Encode(ww)
	default:
		ww.String("none")
	}
}

// readPartitioner parses the section writePartitioner emits.
func readPartitioner(rr *wire.Reader) (tree *rptree.Tree, km *kmeans.Model, err error) {
	switch kind := rr.String(); kind {
	case "rptree":
		if tree, err = rptree.DecodeTree(rr); err != nil {
			err = fmt.Errorf("rptree: %w", err)
		}
	case "kmeans":
		if km, err = kmeans.DecodeModel(rr); err != nil {
			err = fmt.Errorf("kmeans: %w", err)
		}
	case "none":
	default:
		if err = rr.Err(); err == nil {
			err = fmt.Errorf("unknown partitioner section %q", kind)
		}
	}
	return tree, km, err
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
// family and the options' lattice.
func readGroupHash(rr *wire.Reader, o Options, g *group) (err error) {
	if o.Metric != MetricHamming {
		if g.fam, err = lshfunc.DecodeFamily(rr); err != nil {
			return fmt.Errorf("family: %w", err)
		}
		g.lat, err = newLattice(o.Lattice, o.Params.M)
		return err
	}
	bs, err := lshfunc.DecodeBitSampler(rr)
	if err != nil {
		return fmt.Errorf("bit sampler: %w", err)
	}
	if bs.Bits() != o.Bits || bs.M() != o.Params.M || bs.L() != o.Params.L {
		return fmt.Errorf("sampler shape (bits=%d M=%d L=%d) does not match options (bits=%d M=%d L=%d)",
			bs.Bits(), bs.M(), bs.L(), o.Bits, o.Params.M, o.Params.L)
	}
	g.bsamp = bs
	return nil
}

// writeStructure emits the partitioner and the per-group machinery.
func writeStructure(ww *wire.Writer, tree *rptree.Tree, km *kmeans.Model, groups []*group) {
	writePartitioner(ww, tree, km)
	ww.Int(len(groups))
	for _, g := range groups {
		ww.Ints(g.members)
		ww.F64(g.w)
		writeGroupHash(ww, g)
		ww.Int(len(g.tables))
		for _, tab := range g.tables {
			tab.Encode(ww)
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

// readStructure parses the partitioner and groups and rebuilds derived
// state (cuckoo indexes, hierarchies). n is the row count used for member
// validation.
func readStructure(rr *wire.Reader, o Options, n int) (*rptree.Tree, *kmeans.Model, []*group, error) {
	tree, km, err := readPartitioner(rr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: reading partitioner: %w", err)
	}
	nGroups := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, nil, nil, err
	}
	if nGroups < 1 || nGroups > 1<<20 {
		return nil, nil, nil, fmt.Errorf("core: decoded group count %d implausible", nGroups)
	}
	groups := make([]*group, nGroups)
	for gi := range groups {
		g := &group{
			members: rr.Ints(),
			w:       rr.F64(),
		}
		if err := readGroupHash(rr, o, g); err != nil {
			return nil, nil, nil, fmt.Errorf("core: group %d %w", gi, err)
		}
		nTables := rr.Int()
		if err := rr.Err(); err != nil {
			return nil, nil, nil, err
		}
		if nTables != o.Params.L {
			return nil, nil, nil, fmt.Errorf("core: group %d has %d tables, options say %d", gi, nTables, o.Params.L)
		}
		g.tables = make([]*lshtable.Table, nTables)
		for t := range g.tables {
			tab, err := lshtable.DecodeTable(rr)
			if err != nil {
				return nil, nil, nil, fmt.Errorf("core: group %d table %d: %w", gi, t, err)
			}
			g.tables[t] = tab
		}
		for _, id := range g.members {
			if id < 0 || id >= n {
				return nil, nil, nil, fmt.Errorf("core: group %d references row %d of %d", gi, id, n)
			}
		}
		groups[gi] = g
	}
	if err := rr.Err(); err != nil {
		return nil, nil, nil, err
	}
	if o.ProbeMode == ProbeHierarchy {
		if err := buildHierarchies(groups, o); err != nil {
			return nil, nil, nil, err
		}
	}
	return tree, km, groups, nil
}

// ReadIndex deserializes an index written by WriteTo (bilsh.Index/2 or
// /4), rebuilding all derived structures (cuckoo bucket indexes,
// hierarchies). A version 1 file is refused with ErrLegacyFormat.
func ReadIndex(r io.Reader) (*Index, error) { return readWire(wire.NewReader(r), false) }

// readWire decodes a wire image; legacy admits version 1, which only
// Upgrade reads.
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
	tree, km, groups, err := readStructure(rr, o, data.N)
	if err != nil {
		return nil, err
	}
	ix := newIndex(o, data, quant, tree, km, groups)
	ix.attachHamming(sk, sketches)
	return ix, nil
}
