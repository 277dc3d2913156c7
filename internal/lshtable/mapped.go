package lshtable

import (
	"encoding/binary"
	"fmt"

	"bilsh/internal/cuckoo"
	"bilsh/internal/mmap"
)

// Mapped table image — the bucket-store section of the paged disk layout
// (bilsh.Disk/3). Unlike the wire Encode/DecodeTable pair, which streams
// varints and rebuilds the cuckoo index on load, this image stores every
// array as fixed-width little-endian records at 8-aligned offsets so an
// opened index can alias them in place: ids and starts reinterpret as
// []int, bucket keys become string headers over the shared key blob, and
// the cuckoo index maps via cuckoo.ViewBinary. Opening costs O(buckets)
// heap (string headers) instead of O(items), and the id arrays — the
// dominant index structure at scale — stay on disk until probed.
//
// Layout (all u64 little endian; keysBlob last so every array before it
// is naturally 8-aligned; image padded to a multiple of 8):
//
//	[ 0, 8)  magic "LSHTBL/3"
//	[ 8,16)  nBuckets
//	[16,24)  nIds
//	[24,32)  keysBlobLen
//	[32,40)  overflowCount
//	[40,48)  cuckooLen
//	starts    (nBuckets+1) × i64
//	ids       nIds × i64
//	keyOffs   (nBuckets+1) × i64  (offsets into keysBlob)
//	overflow  overflowCount × i64 (bucket ordinals routed via the exact map)
//	cuckoo    cuckooLen bytes (cuckoo.AppendBinary image)
//	keysBlob  keysBlobLen bytes, zero-padded to 8
const mappedMagic = "LSHTBL/3"

const mappedHeaderLen = 48

// MappedSize returns the byte size of AppendMapped's output (always a
// multiple of 8).
func (t *Table) MappedSize() int {
	var keyBytes int
	for _, k := range t.keys {
		keyBytes += len(k)
	}
	n := mappedHeaderLen +
		8*(len(t.keys)+1) + // starts
		8*len(t.ids) +
		8*(len(t.keys)+1) + // keyOffs
		8*len(t.overflow) +
		t.index.BinarySize() +
		keyBytes
	return (n + 7) &^ 7
}

// AppendMapped appends the table's mapped image to dst.
func (t *Table) AppendMapped(dst []byte) []byte { return t.AppendMappedVia(dst, nil) }

// AppendMappedVia is AppendMapped with each id i written as via[i] when
// via is non-nil, as EncodeVia writes it.
func (t *Table) AppendMappedVia(dst []byte, via []int) []byte {
	base := len(dst)
	var keyBytes int
	for _, k := range t.keys {
		keyBytes += len(k)
	}
	dst = append(dst, mappedMagic...)
	dst = appendU64(dst, uint64(len(t.keys)))
	dst = appendU64(dst, uint64(len(t.ids)))
	dst = appendU64(dst, uint64(keyBytes))
	dst = appendU64(dst, uint64(len(t.overflow)))
	dst = appendU64(dst, uint64(t.index.BinarySize()))
	for _, s := range t.starts {
		dst = appendU64(dst, uint64(int64(s)))
	}
	if len(t.keys) == 0 && len(t.starts) == 0 {
		// Normalized empty tables carry starts == [0]; a zero-value table
		// would otherwise emit nothing for the (nBuckets+1) slot.
		dst = appendU64(dst, 0)
	}
	for _, id := range t.ids {
		if via != nil {
			id = via[id]
		}
		dst = appendU64(dst, uint64(int64(id)))
	}
	off := 0
	for _, k := range t.keys {
		dst = appendU64(dst, uint64(off))
		off += len(k)
	}
	dst = appendU64(dst, uint64(off))
	// Overflow ordinals, sorted for determinism (map iteration order).
	ords := make([]int, 0, len(t.overflow))
	for _, b := range t.overflow {
		ords = append(ords, b)
	}
	sortInts(ords)
	for _, b := range ords {
		dst = appendU64(dst, uint64(int64(b)))
	}
	dst = t.index.AppendBinary(dst)
	for _, k := range t.keys {
		dst = append(dst, k...)
	}
	for (len(dst)-base)%8 != 0 {
		dst = append(dst, 0)
	}
	return dst
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ViewMapped opens a table over b (an AppendMapped image, possibly
// mmap-backed). The returned table aliases b wherever the host allows
// zero-copy reinterpretation; the caller must keep b immutable and alive
// for the table's lifetime. maxID, when positive, bounds every stored
// item id (a corrupt file must not inject ids outside the row space).
// Structural corruption returns an error; ViewMapped never panics or
// reads outside b.
func ViewMapped(b []byte, maxID int) (*Table, error) {
	if len(b) < mappedHeaderLen {
		return nil, fmt.Errorf("lshtable: mapped image %d bytes, want >= %d", len(b), mappedHeaderLen)
	}
	if string(b[:8]) != mappedMagic {
		return nil, fmt.Errorf("lshtable: bad mapped magic %q", b[:8])
	}
	nBuckets := binary.LittleEndian.Uint64(b[8:])
	nIds := binary.LittleEndian.Uint64(b[16:])
	keysBlobLen := binary.LittleEndian.Uint64(b[24:])
	overflowCount := binary.LittleEndian.Uint64(b[32:])
	cuckooLen := binary.LittleEndian.Uint64(b[40:])
	const limit = 1 << 40
	if nBuckets > limit || nIds > limit || keysBlobLen > limit || overflowCount > nBuckets || cuckooLen > limit {
		return nil, fmt.Errorf("lshtable: mapped image counts implausible (%d buckets, %d ids)", nBuckets, nIds)
	}
	need := uint64(mappedHeaderLen) + 8*(nBuckets+1) + 8*nIds + 8*(nBuckets+1) + 8*overflowCount + cuckooLen + keysBlobLen
	padded := (need + 7) &^ 7
	if uint64(len(b)) != padded {
		return nil, fmt.Errorf("lshtable: mapped image %d bytes, want %d", len(b), padded)
	}

	off := uint64(mappedHeaderLen)
	startsB := b[off : off+8*(nBuckets+1)]
	off += 8 * (nBuckets + 1)
	idsB := b[off : off+8*nIds]
	off += 8 * nIds
	keyOffsB := b[off : off+8*(nBuckets+1)]
	off += 8 * (nBuckets + 1)
	overflowB := b[off : off+8*overflowCount]
	off += 8 * overflowCount
	cuckooB := b[off : off+cuckooLen]
	off += cuckooLen
	keysBlob := b[off : off+keysBlobLen]

	t := &Table{
		starts: mmap.ViewInts(startsB),
		ids:    mmap.ViewInts(idsB),
	}
	// Interval invariants, exactly DecodeTable's checks.
	if t.starts[0] != 0 || t.starts[nBuckets] != int(nIds) {
		return nil, fmt.Errorf("lshtable: mapped bucket intervals do not cover the id array")
	}
	for i := uint64(1); i <= nBuckets; i++ {
		if t.starts[i] < t.starts[i-1] {
			return nil, fmt.Errorf("lshtable: mapped bucket %d has negative size", i-1)
		}
	}
	if maxID > 0 {
		for _, id := range t.ids {
			if id < 0 || id >= maxID {
				return nil, fmt.Errorf("lshtable: mapped id %d out of [0,%d)", id, maxID)
			}
		}
	}

	// Bucket keys: string headers over the shared blob (no byte copies).
	keyOffs := mmap.ViewInts(keyOffsB)
	if keyOffs[0] != 0 || keyOffs[nBuckets] != int(keysBlobLen) {
		return nil, fmt.Errorf("lshtable: mapped key offsets do not cover the key blob")
	}
	t.keys = make([]string, nBuckets)
	for i := uint64(0); i < nBuckets; i++ {
		lo, hi := keyOffs[i], keyOffs[i+1]
		if lo < 0 || hi < lo || hi > int(keysBlobLen) {
			return nil, fmt.Errorf("lshtable: mapped key %d offsets [%d,%d) invalid", i, lo, hi)
		}
		t.keys[i] = mmap.String(keysBlob[lo:hi])
		if i > 0 && t.keys[i] <= t.keys[i-1] {
			return nil, fmt.Errorf("lshtable: mapped keys not strictly sorted at %d", i)
		}
	}

	for i := uint64(0); i < overflowCount; i++ {
		ord := int(int64(binary.LittleEndian.Uint64(overflowB[8*i:])))
		if ord < 0 || ord >= int(nBuckets) {
			return nil, fmt.Errorf("lshtable: mapped overflow ordinal %d out of range", ord)
		}
		if t.overflow == nil {
			t.overflow = make(map[string]int, overflowCount)
		}
		t.overflow[t.keys[ord]] = ord
	}

	idx, err := cuckoo.ViewBinary(cuckooB, int(nBuckets))
	if err != nil {
		return nil, fmt.Errorf("lshtable: mapped cuckoo index: %w", err)
	}
	t.index = idx
	return t, nil
}
