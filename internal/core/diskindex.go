package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"bilsh/internal/durable"
	"bilsh/internal/mmap"
)

// Disk-backed index — the out-of-core mode the paper names as future work
// ("we also need to design efficient out-of-core algorithms to handle very
// large datasets").
//
// Writers emit the paged v3 layout (see disklayout.go): page-aligned
// CRC-protected sections that the reader maps into the address space, so
// a serving index holds memory proportional to what queries actually
// touch, not to the N×D payload. Files in the older v1/v2 layouts are
// refused with ErrLegacyFormat; Upgrade converts them.
const diskMagicLen = 16

// WriteDiskTo serializes the index in the paged disk layout (v3) at f's
// current offset, rows, codes and postings by external id, as WriteTo
// writes them. The writer must support seeking (an *os.File does):
// section offsets and CRCs are back-patched into the header once the
// sections are streamed. It returns the total bytes written.
func (ix *Index) WriteDiskTo(f io.WriteSeeker) (int64, error) {
	if ix.opts.Metric == MetricHamming {
		// The paged layout keeps float rows on disk and scans them through
		// the pager; the Hamming plane ranks resident packed sketches
		// instead. Use WriteTo/ReadIndex (wire v4) for Hamming indexes.
		return 0, fmt.Errorf("core: Hamming indexes do not support the paged disk layout; use WriteTo")
	}
	sn := ix.loadSnap()
	if err := sn.requireClean(); err != nil {
		return 0, err
	}
	return writeDiskV3(f, &diskV3Source{
		opts: ix.opts, n: sn.data.N, d: sn.data.D,
		quant: sn.quant, level1: sn.level1, groups: sn.groups, rowOrder: sn.rowOrder,
		rows: func(w io.Writer) error {
			payload := make([]byte, 4*sn.data.D)
			for i := 0; i < sn.data.N; i++ {
				for j, v := range sn.data.Row(sn.position(i)) {
					binary.LittleEndian.PutUint32(payload[4*j:], math.Float32bits(v))
				}
				if _, err := w.Write(payload); err != nil {
					return fmt.Errorf("core: writing row %d: %w", i, err)
				}
			}
			return nil
		},
	})
}

// SaveDisk writes the disk-backed layout to path atomically: the bytes
// stream to path+".tmp", which is fsynced and renamed over path, so a
// crash mid-save never leaves a truncated index behind and any previous
// file at path stays intact until the new one is complete. The rename
// also means an index currently serving from the old file keeps its
// mapping — the old inode lives until the last open handle drops.
func (ix *Index) SaveDisk(path string) error {
	return durable.AtomicWrite(path, func(f *os.File) error {
		_, err := ix.WriteDiskTo(f)
		return err
	})
}

// DiskIndex is a queryable index whose vector rows live on disk. It
// supports the full reader API (Query, QueryBatch, QueryBatchParallel,
// ExactKNN); dynamic inserts work (new rows live in memory) and Compact
// materializes the whole index back into memory. The index is served
// straight off the mapping — see docs/outofcore.md.
type DiskIndex struct {
	*Index
	f       *os.File
	mapping *mmap.Mapping // nil under ForceHeap
	res     *residency    // non-nil when mapping is
}

// OpenDisk opens a paged disk index, mapped with the default residency
// policy.
func OpenDisk(path string) (*DiskIndex, error) {
	return OpenDiskWith(path, DiskOpenOptions{Residency: ResidencyPolicy{PinCodes: true}})
}

// OpenDiskWith opens a paged disk index with explicit open options.
func OpenDiskWith(path string, o DiskOpenOptions) (*DiskIndex, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if format := sniffFormat(f, 0); format == diskMagicV1 || format == diskMagicV2 {
		f.Close()
		return nil, legacyFormat(format)
	}
	ix, m, res, err := openDiskV3(f, 0, o, false)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &DiskIndex{Index: ix, f: f, mapping: m, res: res}, nil
}

// sniffFormat names the image at off in r by its magic: a zero-padded
// "bilsh.Disk/N" header (also the checkpoint's "bilsh.CKPT/N") or a wire
// "bilsh.Index/N" section tag. It returns "" for anything else.
func sniffFormat(r io.ReaderAt, off int64) string {
	var head [diskMagicLen]byte
	n, _ := r.ReadAt(head[:], off) // a short or failed read names nothing below
	b := string(head[:n])
	if n > 0 && int(b[0]) < n && strings.HasPrefix(b[1:], "bilsh.Index/") {
		return b[1 : 1+b[0]]
	}
	if strings.HasPrefix(b, "bilsh.") {
		return strings.TrimRight(b, "\x00")
	}
	return ""
}

// Mapped reports whether the index serves from an mmap'd file (false
// under ForceHeap or on hosts without working mmap).
func (di *DiskIndex) Mapped() bool { return di.mapping != nil && di.mapping.Mapped() }

// Residency samples the resident-set stats of a mapped index (zero value
// when not mapped).
func (di *DiskIndex) Residency() ResidencyStats {
	if di.res == nil {
		return ResidencyStats{}
	}
	return di.res.sample()
}

// EnforceResidency applies the residency policy now: sample, and evict
// exact-row pages when over budget. Safe to call concurrently with
// queries; typically driven by a serving-tier ticker.
func (di *DiskIndex) EnforceResidency() ResidencyStats {
	if di.res == nil {
		return ResidencyStats{}
	}
	return di.res.enforce()
}

// SetRowsBudget replaces the exact-row resident budget (bytes; 0 means
// unlimited) for subsequent EnforceResidency calls.
func (di *DiskIndex) SetRowsBudget(b int64) {
	if di.res != nil {
		di.res.setBudget(b)
	}
}

// Close releases the file handle and, for mapped files, the mapping.
// The index must not be queried after Close: mapped reads would fault.
func (di *DiskIndex) Close() error {
	if di.mapping != nil {
		di.mapping.Close()
	}
	return di.f.Close()
}
