package core

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"bilsh/internal/vec"
)

// Description is a structured snapshot of an index's shape, exposed for
// operational introspection (the CLI's `info` command) and tests.
type Description struct {
	N, Dim      int
	Live        int
	Groups      int
	Lattice     LatticeKind
	Partitioner PartitionerKind
	ProbeMode   ProbeMode
	M, L        int
	// GroupSizes and GroupWidths are indexed by group id.
	GroupSizes  []int
	GroupWidths []float64
	// Buckets/Items/MeanBucket/MaxBucket/CollisionMass aggregate the
	// lshtable statistics across all groups and tables.
	Buckets       int
	Items         int
	MeanBucket    float64
	MaxBucket     int
	CollisionMass float64
	// PendingInserts/PendingDeletes report dynamic-overlay volume.
	PendingInserts, PendingDeletes int
	// FrozenSegments counts sealed (but not yet compacted) overlay
	// segments; the active memtable is not included.
	FrozenSegments int
	// Epoch is the snapshot epoch (monotone across publications).
	Epoch          uint64
	HierarchyStale bool
	// DiskBacked reports that the base plane is served off a file
	// mapping (an mmap'd paged index or checkpoint).
	DiskBacked bool
}

// Describe collects a consistent structural snapshot (one atomic load; no
// locks).
func (ix *Index) Describe() Description {
	sn := ix.loadSnap()
	d := Description{
		N: sn.data.N, Dim: sn.data.D, Live: sn.live(),
		Groups:      len(sn.groups),
		Lattice:     ix.opts.Lattice,
		Partitioner: ix.opts.Partitioner,
		ProbeMode:   ix.opts.ProbeMode,
		M:           ix.opts.Params.M, L: ix.opts.Params.L,
		DiskBacked:     sn.mapped != nil && sn.mapped.Mapped(),
		FrozenSegments: len(sn.frozen),
		Epoch:          sn.epoch,
	}
	var overlayCounts []int
	if sn.hasOverlay() {
		overlayCounts = sn.overlayGroupCounts()
	}
	for gi, g := range sn.groups {
		size := len(g.members)
		if overlayCounts != nil {
			size += overlayCounts[gi]
		}
		d.GroupSizes = append(d.GroupSizes, size)
		d.GroupWidths = append(d.GroupWidths, g.w)
	}
	s := ix.TableSummary()
	d.Buckets, d.Items = s.Buckets, s.Items
	d.MeanBucket, d.MaxBucket, d.CollisionMass = s.MeanBucket, s.MaxBucket, s.CollisionMass
	d.PendingInserts = sn.frozenN + sn.mem.len()
	d.PendingDeletes = sn.dead.count()
	d.HierarchyStale = ix.opts.hierarchical() && sn.hasOverlay()
	return d
}

// WriteReport renders the description as an aligned human-readable block.
func (d Description) WriteReport(w io.Writer) error {
	kind := "in-memory"
	if d.DiskBacked {
		kind = "disk-backed"
	}
	if _, err := fmt.Fprintf(w,
		"index: %d vectors (dim %d), %d live, %s\n"+
			"method: partitioner=%v lattice=%v probe=%v M=%d L=%d groups=%d\n"+
			"tables: %d buckets over %d entries (mean %.1f, max %d, collision mass %.1f)\n",
		d.N, d.Dim, d.Live, kind,
		d.Partitioner, d.Lattice, d.ProbeMode, d.M, d.L, d.Groups,
		d.Buckets, d.Items, d.MeanBucket, d.MaxBucket, d.CollisionMass); err != nil {
		return err
	}
	if d.PendingInserts > 0 || d.PendingDeletes > 0 {
		if _, err := fmt.Fprintf(w, "dynamic: %d pending inserts, %d tombstones (hierarchy stale: %v)\n",
			d.PendingInserts, d.PendingDeletes, d.HierarchyStale); err != nil {
			return err
		}
	}
	// Group-size distribution (sorted descending, quartile markers).
	sizes := append([]int(nil), d.GroupSizes...)
	slices.SortFunc(sizes, func(a, b int) int { return cmp.Compare(b, a) })
	if len(sizes) > 0 {
		widths := make([]float64, len(d.GroupWidths))
		copy(widths, d.GroupWidths)
		slices.Sort(widths)
		stats := vec.Summarize(widths)
		if _, err := fmt.Fprintf(w,
			"groups: largest=%d smallest=%d; widths W in [%.3g, %.3g] (mean %.3g)\n",
			sizes[0], sizes[len(sizes)-1], stats.Min, stats.Max, stats.Mean); err != nil {
			return err
		}
	}
	return nil
}
