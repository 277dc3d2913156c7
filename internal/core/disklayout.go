package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"bilsh/internal/lshtable"
	"bilsh/internal/mmap"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
)

// Paged disk layout v3 ("bilsh.Disk/3") — the mmap-able index image.
//
// Every large structure is laid out as fixed-width little-endian records
// in page-aligned sections, so an opened index aliases the mapping in place:
// rows reinterpret as []float32, SQ8 codes are the mapped bytes, bucket
// tables (ids, starts, key blob, in-place cuckoo index) map via
// lshtable.ViewMapped, and group member lists reinterpret as []int.
// Opening is O(buckets) heap; the O(N·D) payload and O(N·L) id arrays
// stay on disk and fault in on demand.
//
// File layout (offsets absolute, so the same image works embedded at a
// checkpoint header offset; every section offset is page-aligned):
//
//	[base+ 0,16)  magic "bilsh.Disk/3" zero-padded
//	[base+16,20)  uint32 page size (4096)
//	[base+20,24)  uint32 section count
//	[base+24,32)  uint64 total file size (truncation check)
//	then count 32-byte section entries:
//	     {kind u32, _ u32, off u64, size u64, crc32c u32, _ u32}
//	then uint32 CRC32C over the header bytes above
//
// Sections (kind → content):
//
//	1 meta    wire-encoded: options, n, d, SQ8 min/scale, partitioner,
//	          per-group width/family and the arrays-section offsets of
//	          the group's member list and table images
//	2 rows    float32 rows, little endian, stride 4·D
//	3 codes   SQ8 codes, stride D (present only under Quantize=sq8)
//	4 arrays  8-aligned blobs: per group an int64 member-id array, then
//	          one lshtable mapped image per table
//
// Every section carries a CRC32C checked at open (before any query can
// touch a mapped page), so truncated or bit-flipped files are rejected
// with an error instead of faulting mid-serve. Our own writers only ever
// replace index files via atomic rename (durable.AtomicWrite), which
// leaves a mapped inode intact — a serving index never observes its
// backing file change.
const (
	diskPage        = 4096
	diskMaxSections = 8

	diskSecMeta   = 1
	diskSecRows   = 2
	diskSecCodes  = 3
	diskSecArrays = 4
)

const (
	diskMagicV3   = "bilsh.Disk/3" // zero-padded to diskMagicLen bytes
	diskMetaMagic = "bilsh.DiskMeta/3"
)

var diskCRC = crc32.MakeTable(crc32.Castagnoli)

// ErrBadDiskLayout tags every structural rejection of a paged index file
// (truncation, CRC mismatch, implausible counts). errors.Is-able.
var ErrBadDiskLayout = errors.New("core: invalid paged disk index")

func badLayout(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadDiskLayout, fmt.Sprintf(format, args...))
}

type diskSection struct {
	kind uint32
	off  uint64 // absolute file offset, page-aligned
	size uint64
	crc  uint32
}

type diskLayout struct {
	base     int64
	fileSize int64
	secs     []diskSection
}

func (l *diskLayout) find(kind uint32) (diskSection, bool) {
	for _, s := range l.secs {
		if s.kind == kind {
			return s, true
		}
	}
	return diskSection{}, false
}

func alignPage(x int64) int64 { return (x + diskPage - 1) &^ (diskPage - 1) }

// ---------------------------------------------------------------------------
// Writer

// diskV3Source is everything the writer needs, decoupled from Index so
// both WriteDiskTo (snapshot) and BuildDisk (streaming build) emit the
// same image.
type diskV3Source struct {
	opts  Options
	n, d  int
	quant *vec.QuantizedMatrix
	level1
	groups []*group
	// rowOrder translates the positions the codes and postings are stored
	// at to the external ids they are written under (zero: identity).
	rowOrder
	// rows streams exactly 4·n·d bytes of little-endian float32 rows, in
	// external id order.
	rows func(w io.Writer) error
}

// crcWriter tracks the CRC32C and length of everything written through it.
type crcWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, diskCRC, p[:n])
	cw.n += int64(n)
	return n, err
}

var zeroPage [diskPage]byte

// padTo writes zero bytes advancing cur to target.
func padTo(w io.Writer, cur, target int64) (int64, error) {
	for cur < target {
		n := target - cur
		if n > diskPage {
			n = diskPage
		}
		wn, err := w.Write(zeroPage[:n])
		cur += int64(wn)
		if err != nil {
			return cur, err
		}
	}
	return cur, nil
}

// writeCodes writes qm's code rows in external id order: row order[i] is
// the i-th (order nil: as stored), batched into 64 KiB writes.
func writeCodes(w io.Writer, qm *vec.QuantizedMatrix, order []int32) error {
	if order == nil {
		_, err := w.Write(qm.Codes)
		return err
	}
	buf := make([]byte, 0, 1<<16)
	for _, r := range order {
		buf = append(buf, qm.Codes[int(r)*qm.D:(int(r)+1)*qm.D]...)
		if len(buf) >= 1<<16-qm.D {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// writeDiskV3 emits the paged layout at f's current offset (the layout
// base; 0 for standalone files, the checkpoint header length for durable
// checkpoints) and returns the bytes written.
func writeDiskV3(f io.WriteSeeker, src *diskV3Source) (int64, error) {
	base, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, err
	}

	// Plan the arrays section: per group the member-id array then the
	// per-table images, every blob a multiple of 8 bytes.
	type arrRef struct{ off, size uint64 }
	memberRefs := make([]arrRef, len(src.groups))
	tableRefs := make([][]arrRef, len(src.groups))
	var arraysLen uint64
	for gi, g := range src.groups {
		memberRefs[gi] = arrRef{arraysLen, uint64(8 * len(g.members))}
		arraysLen += memberRefs[gi].size
		tableRefs[gi] = make([]arrRef, len(g.tables))
		for t, tab := range g.tables {
			size := uint64(tab.MappedSize())
			tableRefs[gi][t] = arrRef{arraysLen, size}
			arraysLen += size
		}
	}

	// Serialize the meta section (small: O(groups · tables) refs).
	var mb bytes.Buffer
	mw := wire.NewWriter(&mb)
	mw.Magic(diskMetaMagic)
	writeOptions(mw, src.opts)
	mw.Int(src.n)
	mw.Int(src.d)
	mw.Bool(src.quant != nil)
	if src.quant != nil {
		mw.F32s(src.quant.Min)
		mw.F32s(src.quant.Scale)
	}
	writePartitioner(mw, src.level1)
	mw.Int(len(src.groups))
	for gi, g := range src.groups {
		mw.U64(memberRefs[gi].off)
		mw.U64(uint64(len(g.members)))
		mw.F64(g.w)
		writeGroupHash(mw, g)
		mw.Int(len(g.tables))
		for t := range g.tables {
			mw.U64(tableRefs[gi][t].off)
			mw.U64(tableRefs[gi][t].size)
		}
	}
	if err := mw.Flush(); err != nil {
		return 0, err
	}
	metaBytes := mb.Bytes()

	// Section offsets.
	nSec := 3
	if src.quant != nil {
		nSec = 4
	}
	hdrLen := int64(32 + 32*nSec + 4)
	metaOff := alignPage(base + hdrLen)
	arraysOff := alignPage(metaOff + int64(len(metaBytes)))
	next := arraysOff + int64(arraysLen)
	var codesOff int64
	if src.quant != nil {
		codesOff = alignPage(next)
		next = codesOff + int64(len(src.quant.Codes))
	}
	rowsOff := alignPage(next)
	rowsLen := 4 * int64(src.n) * int64(src.d)
	fileSize := rowsOff + rowsLen

	secs := make([]diskSection, 0, nSec)

	// Header region is back-patched at the end; zero-fill through metaOff.
	cur := base
	if cur, err = padTo(f, cur, metaOff); err != nil {
		return 0, err
	}

	// meta
	cw := &crcWriter{w: f}
	if _, err := cw.Write(metaBytes); err != nil {
		return 0, err
	}
	secs = append(secs, diskSection{diskSecMeta, uint64(metaOff), uint64(len(metaBytes)), cw.crc})
	cur += cw.n
	if cur, err = padTo(f, cur, arraysOff); err != nil {
		return 0, err
	}

	// arrays
	cw = &crcWriter{w: f}
	var buf []byte
	for gi, g := range src.groups {
		if uint64(cw.n) != memberRefs[gi].off {
			return 0, fmt.Errorf("core: disk layout: member array %d at %d, planned %d", gi, cw.n, memberRefs[gi].off)
		}
		buf = buf[:0]
		for _, id := range g.members {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(id)))
			if len(buf) >= 1<<16 {
				if _, err := cw.Write(buf); err != nil {
					return 0, err
				}
				buf = buf[:0]
			}
		}
		if _, err := cw.Write(buf); err != nil {
			return 0, err
		}
		for t, tab := range g.tables {
			if uint64(cw.n) != tableRefs[gi][t].off {
				return 0, fmt.Errorf("core: disk layout: table %d/%d at %d, planned %d", gi, t, cw.n, tableRefs[gi][t].off)
			}
			img := tab.AppendMappedVia(nil, src.ext)
			if uint64(len(img)) != tableRefs[gi][t].size {
				return 0, fmt.Errorf("core: disk layout: table %d/%d image %d bytes, planned %d", gi, t, len(img), tableRefs[gi][t].size)
			}
			if _, err := cw.Write(img); err != nil {
				return 0, err
			}
		}
	}
	if uint64(cw.n) != arraysLen {
		return 0, fmt.Errorf("core: disk layout: arrays section %d bytes, planned %d", cw.n, arraysLen)
	}
	secs = append(secs, diskSection{diskSecArrays, uint64(arraysOff), arraysLen, cw.crc})
	cur += cw.n

	// codes
	if src.quant != nil {
		if cur, err = padTo(f, cur, codesOff); err != nil {
			return 0, err
		}
		cw = &crcWriter{w: f}
		if err := writeCodes(cw, src.quant, src.pos); err != nil {
			return 0, err
		}
		secs = append(secs, diskSection{diskSecCodes, uint64(codesOff), uint64(len(src.quant.Codes)), cw.crc})
		cur += cw.n
	}

	// rows
	if cur, err = padTo(f, cur, rowsOff); err != nil {
		return 0, err
	}
	cw = &crcWriter{w: f}
	if err := src.rows(cw); err != nil {
		return 0, err
	}
	if cw.n != rowsLen {
		return 0, fmt.Errorf("core: disk layout: rows section %d bytes, want %d", cw.n, rowsLen)
	}
	secs = append(secs, diskSection{diskSecRows, uint64(rowsOff), uint64(rowsLen), cw.crc})
	cur += cw.n
	if cur != fileSize {
		return 0, fmt.Errorf("core: disk layout: wrote %d bytes, planned %d", cur-base, fileSize-base)
	}

	// Back-patch the header.
	hdr := make([]byte, hdrLen)
	copy(hdr, diskMagicV3)
	binary.LittleEndian.PutUint32(hdr[16:], diskPage)
	binary.LittleEndian.PutUint32(hdr[20:], uint32(nSec))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(fileSize))
	for i, s := range secs {
		e := hdr[32+32*i:]
		binary.LittleEndian.PutUint32(e[0:], s.kind)
		binary.LittleEndian.PutUint64(e[8:], s.off)
		binary.LittleEndian.PutUint64(e[16:], s.size)
		binary.LittleEndian.PutUint32(e[24:], s.crc)
	}
	binary.LittleEndian.PutUint32(hdr[hdrLen-4:], crc32.Checksum(hdr[:hdrLen-4], diskCRC))
	if _, err := f.Seek(base, io.SeekStart); err != nil {
		return 0, err
	}
	if _, err := f.Write(hdr); err != nil {
		return 0, err
	}
	if _, err := f.Seek(fileSize, io.SeekStart); err != nil {
		return 0, err
	}
	return fileSize - base, nil
}

// ---------------------------------------------------------------------------
// Reader

// readDiskLayout parses and validates the header at base. Per-section
// CRCs are verified separately (verify) so callers control when the full
// file is read.
func readDiskLayout(f *os.File, base int64) (*diskLayout, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var fixed [32]byte
	if _, err := f.ReadAt(fixed[:], base); err != nil {
		return nil, badLayout("header unreadable: %v", err)
	}
	if string(bytes.TrimRight(fixed[:diskMagicLen], "\x00")) != diskMagicV3 {
		return nil, badLayout("bad magic %q", fixed[:diskMagicLen])
	}
	if ps := binary.LittleEndian.Uint32(fixed[16:]); ps != diskPage {
		return nil, badLayout("page size %d, want %d", ps, diskPage)
	}
	nSec := int(binary.LittleEndian.Uint32(fixed[20:]))
	if nSec < 1 || nSec > diskMaxSections {
		return nil, badLayout("section count %d implausible", nSec)
	}
	fileSize := int64(binary.LittleEndian.Uint64(fixed[24:]))
	if fileSize != st.Size() {
		return nil, badLayout("file is %d bytes, header says %d (truncated or overwritten)", st.Size(), fileSize)
	}
	hdrLen := int64(32 + 32*nSec + 4)
	hdr := make([]byte, hdrLen)
	if _, err := f.ReadAt(hdr, base); err != nil {
		return nil, badLayout("header unreadable: %v", err)
	}
	if got, want := binary.LittleEndian.Uint32(hdr[hdrLen-4:]), crc32.Checksum(hdr[:hdrLen-4], diskCRC); got != want {
		return nil, badLayout("header CRC mismatch")
	}

	l := &diskLayout{base: base, fileSize: fileSize}
	seen := map[uint32]bool{}
	for i := 0; i < nSec; i++ {
		e := hdr[32+32*i:]
		s := diskSection{
			kind: binary.LittleEndian.Uint32(e[0:]),
			off:  binary.LittleEndian.Uint64(e[8:]),
			size: binary.LittleEndian.Uint64(e[16:]),
			crc:  binary.LittleEndian.Uint32(e[24:]),
		}
		if s.kind < diskSecMeta || s.kind > diskSecArrays || seen[s.kind] {
			return nil, badLayout("section %d kind %d invalid or duplicate", i, s.kind)
		}
		seen[s.kind] = true
		if s.off%diskPage != 0 || s.off < uint64(base+hdrLen) || s.size > uint64(fileSize) ||
			s.off+s.size > uint64(fileSize) || s.off+s.size < s.off {
			return nil, badLayout("section kind %d [%d,+%d) outside file of %d bytes", s.kind, s.off, s.size, fileSize)
		}
		l.secs = append(l.secs, s)
	}
	for _, kind := range []uint32{diskSecMeta, diskSecRows, diskSecArrays} {
		if !seen[kind] {
			return nil, badLayout("required section kind %d missing", kind)
		}
	}
	return l, nil
}

// verify streams every section through its CRC32C. Reads go through
// pread, not the mapping, so verification does not commit the file to the
// resident set.
func (l *diskLayout) verify(f *os.File) error {
	buf := make([]byte, 1<<20)
	for _, s := range l.secs {
		var crc uint32
		off, remaining := int64(s.off), int64(s.size)
		for remaining > 0 {
			n := int64(len(buf))
			if n > remaining {
				n = remaining
			}
			if _, err := f.ReadAt(buf[:n], off); err != nil {
				return badLayout("section kind %d unreadable at %d: %v", s.kind, off, err)
			}
			crc = crc32.Update(crc, diskCRC, buf[:n])
			off += n
			remaining -= n
		}
		if crc != s.crc {
			return badLayout("section kind %d CRC mismatch (corrupt or truncated)", s.kind)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Open

// DiskOpenOptions configures OpenDiskWith.
type DiskOpenOptions struct {
	// ForceHeap loads the whole file into memory instead of mapping it —
	// the heap-resident baseline the out-of-core benchmark compares
	// against. Query results are byte-identical either way.
	ForceHeap bool
	// Residency is the paging policy for mapped files (zero value: pin
	// codes, no row budget).
	Residency ResidencyPolicy
}

// openDiskV3 opens a paged layout whose header sits at base and returns
// the in-place index over it. The returned mapping is nil under
// ForceHeap (or on hosts without mmap support). legacy admits
// lshfunc.Family/1 families, as buildFromLayout says.
func openDiskV3(f *os.File, base int64, o DiskOpenOptions, legacy bool) (*Index, *mmap.Mapping, *residency, error) {
	lay, err := readDiskLayout(f, base)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := lay.verify(f); err != nil {
		return nil, nil, nil, err
	}

	var (
		m    *mmap.Mapping
		blob []byte
	)
	if o.ForceHeap {
		blob = make([]byte, lay.fileSize)
		if _, err := f.ReadAt(blob, 0); err != nil {
			return nil, nil, nil, badLayout("reading file: %v", err)
		}
	} else {
		if m, err = mmap.OpenFile(f); err != nil {
			return nil, nil, nil, err
		}
		blob = m.Bytes()
		if int64(len(blob)) != lay.fileSize {
			m.Close()
			return nil, nil, nil, badLayout("mapped %d bytes, want %d", len(blob), lay.fileSize)
		}
	}
	ix, err := buildFromLayout(blob, lay, legacy)
	if err != nil {
		if m != nil {
			m.Close()
		}
		return nil, nil, nil, err
	}
	var res *residency
	if m != nil && m.Mapped() {
		res = newResidency(m, lay, o.Residency)
	}
	// Root the mapping from the snapshot so a later Compact/adoptBase swap
	// can retire it to the GC without racing in-flight readers.
	ix.loadSnap().mapped = m
	return ix, m, res, nil
}

func secSlice(blob []byte, s diskSection) []byte { return blob[s.off : s.off+s.size] }

// buildFromLayout assembles the in-place Index over a validated layout.
// Hostile inputs that pass the CRCs must still never panic: every offset,
// count and id decoded below is bounds-checked before use. A
// lshfunc.Family/1 family is refused with ErrLegacyFormat unless legacy
// is set; then every group's tables are hashed again from the rows
// (rehashGroups) and live on the heap.
func buildFromLayout(blob []byte, lay *diskLayout, legacy bool) (*Index, error) {
	metaSec, _ := lay.find(diskSecMeta)
	rowsSec, _ := lay.find(diskSecRows)
	arraysSec, _ := lay.find(diskSecArrays)
	arrays := secSlice(blob, arraysSec)

	rr := wire.NewReader(bytes.NewReader(secSlice(blob, metaSec)))
	rr.ExpectMagic(diskMetaMagic)
	o, err := readOptions(rr, 3)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDiskLayout, err)
	}
	n := rr.Int()
	d := rr.Int()
	hasQuant := rr.Bool()
	var qmin, qscale []float32
	if hasQuant {
		qmin = rr.F32s()
		qscale = rr.F32s()
	}
	if err := rr.Err(); err != nil {
		return nil, badLayout("meta: %v", err)
	}
	if n < 0 || d <= 0 || d > 1<<20 {
		return nil, badLayout("shape %dx%d implausible", n, d)
	}
	if uint64(rowsSec.size) != uint64(n)*uint64(d)*4 {
		return nil, badLayout("rows section %d bytes, want %d", rowsSec.size, uint64(n)*uint64(d)*4)
	}

	var quant *vec.QuantizedMatrix
	if hasQuant {
		codesSec, ok := lay.find(diskSecCodes)
		if !ok {
			return nil, badLayout("quantized meta but no codes section")
		}
		if uint64(codesSec.size) != uint64(n)*uint64(d) {
			return nil, badLayout("codes section %d bytes, want %d", codesSec.size, uint64(n)*uint64(d))
		}
		if len(qmin) != d || len(qscale) != d {
			return nil, badLayout("quant min/scale lengths %d/%d, want %d", len(qmin), len(qscale), d)
		}
		quant = &vec.QuantizedMatrix{Codes: secSlice(blob, codesSec), N: n, D: d, Min: qmin, Scale: qscale}
	}

	l1, err := readPartitioner(rr)
	if err != nil {
		return nil, badLayout("partitioner: %v", err)
	}
	nGroups := rr.Int()
	if err := rr.Err(); err != nil {
		return nil, badLayout("meta: %v", err)
	}
	if nGroups < 1 || nGroups > 1<<20 {
		return nil, badLayout("group count %d implausible", nGroups)
	}
	arrRange := func(off, size uint64) ([]byte, error) {
		if off%8 != 0 || off > uint64(len(arrays)) || size > uint64(len(arrays)) || off+size > uint64(len(arrays)) {
			return nil, badLayout("arrays ref [%d,+%d) outside section of %d bytes", off, size, len(arrays))
		}
		return arrays[off : off+size], nil
	}
	groups := make([]*group, nGroups)
	rounded := false
	for gi := range groups {
		mOff := rr.U64()
		mCount := rr.U64()
		w := rr.F64()
		if err := rr.Err(); err != nil {
			return nil, badLayout("group %d: %v", gi, err)
		}
		if mCount > uint64(n) {
			return nil, badLayout("group %d claims %d members of %d rows", gi, mCount, n)
		}
		mb, err := arrRange(mOff, 8*mCount)
		if err != nil {
			return nil, err
		}
		g := &group{members: mmap.ViewInts(mb), w: w}
		for _, id := range g.members {
			if id < 0 || id >= n {
				return nil, badLayout("group %d references row %d of %d", gi, id, n)
			}
		}
		// The meta option block has no Metric field, so this is always a
		// p-stable family.
		r, err := readGroupHash(rr, o, g, legacy)
		if errors.Is(err, ErrLegacyFormat) {
			return nil, fmt.Errorf("group %d %w", gi, err)
		}
		if err != nil {
			return nil, badLayout("group %d %v", gi, err)
		}
		rounded = rounded || r
		nTables := rr.Int()
		if err := rr.Err(); err != nil {
			return nil, badLayout("group %d: %v", gi, err)
		}
		if nTables != o.Params.L {
			return nil, badLayout("group %d has %d tables, options say %d", gi, nTables, o.Params.L)
		}
		g.tables = make([]*lshtable.Table, nTables)
		for t := range g.tables {
			tOff := rr.U64()
			tSize := rr.U64()
			if err := rr.Err(); err != nil {
				return nil, badLayout("group %d table %d: %v", gi, t, err)
			}
			tb, err := arrRange(tOff, tSize)
			if err != nil {
				return nil, err
			}
			tab, err := lshtable.ViewMapped(tb, n)
			if err != nil {
				return nil, fmt.Errorf("%w: group %d table %d: %v", ErrBadDiskLayout, gi, t, err)
			}
			g.tables[t] = tab
		}
		groups[gi] = g
	}
	if err := rr.Err(); err != nil {
		return nil, badLayout("meta: %v", err)
	}

	if err := checkShapes(o, d, l1, groups); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDiskLayout, err)
	}
	data := &vec.Matrix{Data: mmap.ViewFloat32s(secSlice(blob, rowsSec)), N: n, D: d}
	if rounded {
		if err := rehashGroups(groups, data); err != nil {
			return nil, err
		}
	}
	if err := buildHierarchies(groups, o); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDiskLayout, err)
	}
	return newIndex(o, data, quant, l1, groups), nil
}
