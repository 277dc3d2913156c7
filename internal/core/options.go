// Package core implements Bi-level LSH (Pan & Manocha, ICDE 2012): a
// two-level approximate k-nearest-neighbor index.
//
// Level 1 partitions the dataset into groups with bounded aspect ratio
// using a random projection tree (or, for the paper's Fig. 13c baseline,
// K-means; or no partitioning at all, which makes the index a standard
// p-stable LSH — the paper's main baseline). Level 2 builds, per group, L
// locality-sensitive hash tables over a Z^M or E8 lattice quantizer,
// with optional multi-probe querying and an optional bucket hierarchy
// (Morton curve for Z^M, explicit tree for E8) that adapts bucket
// size per query.
//
// The bi-level hash code of an item v is H~(v) = (RP-tree(v), H(v)): the
// group index plus the in-group lattice code.
//
// Beyond Build/Query the package provides: persistence (WriteTo /
// ReadIndex), a disk-backed layout whose vector rows stay on disk
// (WriteDiskTo / OpenDisk), streaming out-of-core construction from fvecs
// files (BuildDisk), dynamic updates (Insert / Delete / Compact), parallel
// batch queries (QueryBatchParallel) and introspection (Describe). An
// Index is safe for unrestricted concurrent use: readers run lock-free
// against immutable published snapshots, mutators serialize internally,
// and Compact merges in the background without blocking either (see
// docs/concurrency.md for the full contract).
package core

import (
	"fmt"

	"bilsh/internal/lshfunc"
	"bilsh/internal/rptree"
)

// PartitionerKind selects the level-1 algorithm.
type PartitionerKind int

const (
	// PartitionNone disables level 1 — the index degenerates to standard
	// LSH (the paper's baseline).
	PartitionNone PartitionerKind = iota
	// PartitionRPTree uses a random projection tree (the paper's method).
	PartitionRPTree
	// PartitionKMeans uses K-means (the Fig. 13c baseline).
	PartitionKMeans
)

// String implements fmt.Stringer.
func (p PartitionerKind) String() string {
	switch p {
	case PartitionNone:
		return "none"
	case PartitionRPTree:
		return "rptree"
	case PartitionKMeans:
		return "kmeans"
	default:
		return fmt.Sprintf("PartitionerKind(%d)", int(p))
	}
}

// LatticeKind selects the level-2 space quantizer.
type LatticeKind int

const (
	// LatticeZM is the integer lattice of Eq. 2.
	LatticeZM LatticeKind = iota
	// LatticeE8 is the E8 lattice of Section IV-B2b.
	LatticeE8
)

// String implements fmt.Stringer.
func (l LatticeKind) String() string {
	switch l {
	case LatticeZM:
		return "ZM"
	case LatticeE8:
		return "E8"
	default:
		return fmt.Sprintf("LatticeKind(%d)", int(l))
	}
}

// ProbeMode selects how buckets are gathered at query time.
type ProbeMode int

const (
	// ProbeSingle looks up only the bucket containing the query.
	ProbeSingle ProbeMode = iota
	// ProbeMulti probes Options.Probes buckets per table (Lv et al. for
	// Z^M; the 240-neighbor sequence for E8).
	ProbeMulti
	// ProbeHierarchy enlarges sparse queries' buckets via the hierarchical
	// LSH table (Morton curve / E8 tree).
	ProbeHierarchy
)

// String implements fmt.Stringer.
func (p ProbeMode) String() string {
	switch p {
	case ProbeSingle:
		return "single"
	case ProbeMulti:
		return "multiprobe"
	case ProbeHierarchy:
		return "hierarchy"
	default:
		return fmt.Sprintf("ProbeMode(%d)", int(p))
	}
}

// QuantizeKind selects the resident row-store representation the
// short-list scan reads.
type QuantizeKind int

const (
	// QuantizeNone scans full-precision float32 rows (the default).
	QuantizeNone QuantizeKind = iota
	// QuantizeSQ8 scans per-dimension min/max scalar-quantized int8 rows
	// (~4× less bandwidth and resident bytes) and re-ranks the top
	// k×RerankFactor survivors against the exact float32 rows, so the
	// returned distances are always exact.
	QuantizeSQ8
)

// String implements fmt.Stringer.
func (q QuantizeKind) String() string {
	switch q {
	case QuantizeNone:
		return "none"
	case QuantizeSQ8:
		return "sq8"
	default:
		return fmt.Sprintf("QuantizeKind(%d)", int(q))
	}
}

// ParseQuantizeKind parses the CLI spelling of a QuantizeKind.
func ParseQuantizeKind(s string) (QuantizeKind, error) {
	switch s {
	case "", "none":
		return QuantizeNone, nil
	case "sq8":
		return QuantizeSQ8, nil
	default:
		return 0, fmt.Errorf("core: unknown quantize kind %q (want none|sq8)", s)
	}
}

// MetricKind selects the distance family the index is built over.
type MetricKind int

const (
	// MetricEuclidean is the paper's l2 setting: p-stable projections,
	// lattice quantizers, squared-Euclidean ranking (the default).
	MetricEuclidean MetricKind = iota
	// MetricHamming sketches every vector into Options.Bits hyperplane-sign
	// bits and runs bit-sampling LSH over the packed sketches; candidates
	// rank by exact Hamming distance between sketches. Hamming indexes are
	// static: Insert and Compact are unsupported (Delete still works), and
	// level 2 requires ProbeSingle or ProbeMulti. See docs/datasets.md and
	// the DESIGN.md metric-family row.
	MetricHamming
)

// String implements fmt.Stringer.
func (m MetricKind) String() string {
	switch m {
	case MetricEuclidean:
		return "euclidean"
	case MetricHamming:
		return "hamming"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(m))
	}
}

// ParseMetricKind parses the CLI spelling of a MetricKind.
func ParseMetricKind(s string) (MetricKind, error) {
	switch s {
	case "", "euclidean", "l2":
		return MetricEuclidean, nil
	case "hamming":
		return MetricHamming, nil
	default:
		return 0, fmt.Errorf("core: unknown metric kind %q (want euclidean|hamming)", s)
	}
}

// Options configures an Index.
type Options struct {
	// Metric selects the distance family (default MetricEuclidean). With
	// MetricHamming, Lattice and the W/AutoTuneW knobs are ignored: level 2
	// runs bit-sampling tables over packed hyperplane sketches, Params.M is
	// the sampled key width in bits (must not exceed Bits) and candidates
	// rank by Hamming distance.
	Metric MetricKind
	// Bits is the binary sketch width for MetricHamming (default 256).
	// Ignored for MetricEuclidean.
	Bits int
	// Lattice selects the level-2 quantizer (default LatticeZM).
	Lattice LatticeKind
	// Partitioner selects level 1 (default PartitionNone = standard LSH).
	Partitioner PartitionerKind
	// Groups is the number of level-1 partitions g (default 16, the
	// paper's standard setting; ignored for PartitionNone).
	Groups int
	// RPRule is the RP-tree split rule (default rptree.RuleMean).
	RPRule rptree.Rule
	// Params are the LSH hyperparameters M, L, W. W acts as the baseline
	// width; per-group tuning rescales around it when AutoTuneW is set.
	Params lshfunc.Params
	// ProbeMode selects the query strategy (default ProbeSingle).
	ProbeMode ProbeMode
	// Probes is the number of buckets probed per table in ProbeMulti
	// (default 240+1, the paper's setting: the home bucket plus 240).
	Probes int
	// AutoTuneW computes a per-group W from a data sample (Section IV-B:
	// "we use an automatic parameter tuning approach ... for each cell"),
	// then multiplies it by Params.W as the sweep knob.
	AutoTuneW bool
	// TuneK is the neighborhood size the tuner targets (default 50).
	TuneK int
	// TuneTargetRecall is the tuner's per-table collision target for a
	// k-th neighbor (default 0.9).
	TuneTargetRecall float64
	// MortonBits is the per-dimension Morton key width for the Z^M
	// hierarchy (default 16).
	MortonBits int
	// HierMinCandidates is the bucket-size floor used by single-query
	// hierarchical search; QueryBatch replaces it with the paper's
	// median-of-short-list-sizes rule. Default 2k at query time.
	HierMinCandidates int
	// MinGroupSize keeps level-1 partitions from becoming too small to
	// tune (default 8).
	MinGroupSize int
	// Quantize selects the resident row store scanned by the short list
	// (default QuantizeNone). With QuantizeSQ8 the scan reads int8 codes
	// and the final shortlist is re-ranked against exact float32 rows.
	Quantize QuantizeKind
	// RerankFactor sizes the exact re-rank shortlist under quantization:
	// the top k×RerankFactor approximate candidates get exact distances
	// (default 4). Ignored when Quantize is QuantizeNone.
	RerankFactor int
	// MemtableThreshold is the number of inserts the active memtable
	// accepts before it is sealed into a frozen overlay segment (default
	// 1024). Runtime knob only: not part of the serialized index format.
	MemtableThreshold int
	// AutoCompactSegments, when positive, triggers a background Compact
	// whenever a seal leaves at least this many frozen segments pending.
	// Zero (the default) disables automatic compaction. Runtime knob only:
	// not serialized.
	AutoCompactSegments int
}

// defaultMemtableThreshold is the memtable capacity when the option is
// unset (including on indexes loaded from disk, where the knob is not part
// of the wire format).
const defaultMemtableThreshold = 1024

// defaultRerankFactor is the exact-re-rank multiplier when the option is
// unset (including on v1 index files, which predate the knob).
const defaultRerankFactor = 4

// rerankFactor is RerankFactor with the default applied, so a zero value
// (e.g. an Options struct that bypassed fill) still re-ranks sensibly.
func (o Options) rerankFactor() int {
	if o.RerankFactor > 0 {
		return o.RerankFactor
	}
	return defaultRerankFactor
}

// hierarchical reports whether the groups of an index built under o carry
// bucket hierarchies: under ProbeHierarchy, and only then.
func (o Options) hierarchical() bool { return o.ProbeMode == ProbeHierarchy }

func (o *Options) fill() error {
	if o.Metric == MetricHamming {
		if o.Bits <= 0 {
			o.Bits = 256
		}
		if o.Params.M == 0 {
			// Bit-sampling keys want more bits than the lattice default
			// (8 lattice coordinates spread candidates far better than 8
			// sampled bits would).
			o.Params.M = 16
		}
		// The width tuner models Euclidean collision probabilities; bucket
		// width has no meaning for bit-sampled keys.
		o.AutoTuneW = false
	}
	if o.Groups <= 0 {
		o.Groups = 16
	}
	if o.Partitioner == PartitionNone {
		o.Groups = 1
	}
	if o.Params.M == 0 {
		o.Params.M = 8
	}
	if o.Params.L == 0 {
		o.Params.L = 10
	}
	if o.Params.W == 0 {
		o.Params.W = 1
	}
	if err := o.Params.Validate(); err != nil {
		return err
	}
	if o.Probes <= 0 {
		o.Probes = 241
	}
	if o.TuneK <= 0 {
		o.TuneK = 50
	}
	if o.TuneTargetRecall <= 0 || o.TuneTargetRecall >= 1 {
		o.TuneTargetRecall = 0.9
	}
	if o.MortonBits <= 0 || o.MortonBits > 31 {
		o.MortonBits = 16
	}
	if o.MinGroupSize <= 0 {
		o.MinGroupSize = 8
	}
	if o.RerankFactor <= 0 {
		o.RerankFactor = defaultRerankFactor
	}
	if o.MemtableThreshold <= 0 {
		o.MemtableThreshold = defaultMemtableThreshold
	}
	if o.Params.L > 255 {
		// Overlay bucket keys encode the table index in one byte.
		return fmt.Errorf("core: L = %d exceeds the 255-table limit", o.Params.L)
	}
	return o.Validate()
}

// Validate checks every field of a fully specified Options against the
// ranges fill produces. Build runs it after filling defaults, and
// ReadIndex/OpenDisk run it on the decoded option block, so a corrupt or
// hostile index file cannot carry an unknown lattice/partitioner/probe
// mode or a negative count into a live index.
func (o Options) Validate() error {
	if err := o.Params.Validate(); err != nil {
		return err
	}
	switch o.Metric {
	case MetricEuclidean:
	case MetricHamming:
		switch {
		case o.Bits < 1 || o.Bits > 1<<20:
			return fmt.Errorf("core: Bits %d out of range [1, 2^20]", o.Bits)
		case o.Params.M > o.Bits:
			return fmt.Errorf("core: M = %d exceeds the %d-bit sketch", o.Params.M, o.Bits)
		case o.ProbeMode == ProbeHierarchy:
			return fmt.Errorf("core: ProbeHierarchy is lattice-specific; Hamming supports single/multiprobe")
		case o.Quantize != QuantizeNone:
			return fmt.Errorf("core: quantization applies to float rows; Hamming sketches are already 1 bit/plane")
		}
	default:
		return fmt.Errorf("core: unknown metric kind %d", int(o.Metric))
	}
	switch o.Lattice {
	case LatticeZM, LatticeE8:
	default:
		return fmt.Errorf("core: unknown lattice kind %d", int(o.Lattice))
	}
	switch o.Partitioner {
	case PartitionNone, PartitionRPTree, PartitionKMeans:
	default:
		return fmt.Errorf("core: unknown partitioner kind %d", int(o.Partitioner))
	}
	switch o.ProbeMode {
	case ProbeSingle, ProbeMulti, ProbeHierarchy:
	default:
		return fmt.Errorf("core: unknown probe mode %d", int(o.ProbeMode))
	}
	switch o.RPRule {
	case rptree.RuleMean, rptree.RuleMax:
	default:
		return fmt.Errorf("core: unknown rp-tree rule %d", int(o.RPRule))
	}
	switch o.Quantize {
	case QuantizeNone, QuantizeSQ8:
	default:
		return fmt.Errorf("core: unknown quantize kind %d", int(o.Quantize))
	}
	if o.RerankFactor < 0 {
		return fmt.Errorf("core: RerankFactor %d negative", o.RerankFactor)
	}
	switch {
	case o.Groups < 1 || o.Groups > 1<<20:
		return fmt.Errorf("core: group count %d out of range [1, 2^20]", o.Groups)
	case o.Params.L > 255:
		return fmt.Errorf("core: L = %d exceeds the 255-table limit", o.Params.L)
	case o.Probes < 1 || o.Probes > 1<<20:
		return fmt.Errorf("core: probe count %d out of range [1, 2^20]", o.Probes)
	case o.TuneK < 0:
		return fmt.Errorf("core: TuneK %d negative", o.TuneK)
	case o.TuneTargetRecall <= 0 || o.TuneTargetRecall >= 1:
		return fmt.Errorf("core: TuneTargetRecall %g outside (0, 1)", o.TuneTargetRecall)
	case o.MortonBits < 1 || o.MortonBits > 31:
		return fmt.Errorf("core: MortonBits %d out of range [1, 31]", o.MortonBits)
	case o.HierMinCandidates < 0:
		return fmt.Errorf("core: HierMinCandidates %d negative", o.HierMinCandidates)
	case o.MinGroupSize < 0:
		return fmt.Errorf("core: MinGroupSize %d negative", o.MinGroupSize)
	}
	return nil
}
