package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"bilsh/internal/durable"
	"bilsh/internal/mmap"
	"bilsh/internal/vec"
	"bilsh/internal/wire"
)

// Formats only Upgrade reads. The serving readers (ReadIndex, OpenDisk,
// OpenDurable) refuse them with ErrLegacyFormat.
//
//	bilsh.Index/1  the wire image before the quantization fields
//	bilsh.Disk/1   [magic 16][data offset u64] wire metadata (v1 options,
//	               n, d, structure), then fixed-stride float32 rows
//	bilsh.Disk/2   as /1 with v2 options and the quantized row section
//
// A durable checkpoint whose payload is a wire image (any bilsh.Index/N)
// is legacy too: checkpoints carry the paged layout.
const (
	indexMagicV1 = "bilsh.Index/1"
	diskMagicV1  = "bilsh.Disk/1"
	diskMagicV2  = "bilsh.Disk/2"
)

// ErrLegacyFormat tags a file or checkpoint in a format the serving code
// no longer reads. errors.Is-able.
var ErrLegacyFormat = errors.New("core: legacy index format; convert it with `bilsh upgrade`")

func legacyFormat(format string) error {
	return fmt.Errorf("%w (found %s)", ErrLegacyFormat, format)
}

// Upgrade reads the index file at in, in any format bilsh has written —
// a wire image, a paged disk image or a durable checkpoint — and writes
// its current equivalent to out, which may be in:
//
//	bilsh.Index/1            → bilsh.Index/2
//	bilsh.Disk/1, /2         → bilsh.Disk/3, rows materialised once
//	checkpoint, wire payload → checkpoint, paged payload, same generation
//
// A checkpoint keeps its generation, so the WAL beside it still pairs. A
// file already current is opened by its serving reader and copied
// unchanged (left alone when out is in). A converted file is opened by
// its serving reader before it replaces out, so Upgrade never publishes
// a file the serving code would refuse. It returns the formats found and
// written.
func Upgrade(in, out string) (from, to string, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("core: upgrading %s: %w", in, err)
		}
	}()
	f, err := os.Open(in)
	if err != nil {
		return "", "", err
	}
	defer f.Close()
	var (
		gen  uint64
		base int64
	)
	if g, cf, err := durable.OpenCheckpoint(in); err == nil {
		cf.Close()
		gen, base = g, durable.CheckpointHeaderLen
	}
	st, err := f.Stat()
	if err != nil {
		return "", "", err
	}
	from = sniffFormat(f, base)
	var ix *Index
	switch {
	case strings.HasPrefix(from, "bilsh.Index/"):
		ix, err = readWire(wire.NewReader(io.NewSectionReader(f, base, st.Size()-base)), true)
		if base == 0 && from != indexMagicV1 {
			ix = nil // current: checked, not converted
		}
	case base == 0 && (from == diskMagicV1 || from == diskMagicV2):
		ix, err = readDiskLegacy(f, from)
	case from == diskMagicV3:
		err = checkPaged(f, base)
	default:
		err = fmt.Errorf("not a bilsh index (found %q)", from)
	}
	if err != nil {
		return from, "", err
	}

	switch {
	case ix == nil: // already current
		if out == in {
			return from, from, nil
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return from, "", err
		}
		return from, from, durable.AtomicWrite(out, func(w *os.File) error {
			_, err := io.Copy(w, f)
			return err
		})
	case base == 0 && from == indexMagicV1:
		return from, indexMagic, durable.AtomicWrite(out, func(w *os.File) error {
			if _, err := ix.WriteTo(w); err != nil {
				return err
			}
			if _, err := w.Seek(0, io.SeekStart); err != nil {
				return err
			}
			_, err := ReadIndex(w)
			return err
		})
	}
	writePaged := func(w *os.File) error {
		if _, err := ix.WriteDiskTo(w); err != nil {
			return err
		}
		return checkPaged(w, base)
	}
	if base > 0 {
		return from, diskMagicV3, durable.WriteCheckpoint(out, gen, writePaged)
	}
	return from, diskMagicV3, durable.AtomicWrite(out, writePaged)
}

// checkPaged opens the paged image at base in f as the serving code
// would, then releases it.
func checkPaged(f *os.File, base int64) error {
	_, m, _, err := openDiskV3(f, base, DiskOpenOptions{})
	if m != nil {
		m.Close()
	}
	return err
}

// readDiskLegacy reads a bilsh.Disk/1 or /2 file into a heap index.
func readDiskLegacy(f *os.File, format string) (*Index, error) {
	version := 1
	if format == diskMagicV2 {
		version = 2
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var offB [8]byte
	if _, err := f.ReadAt(offB[:], diskMagicLen); err != nil {
		return nil, fmt.Errorf("reading disk index header: %w", err)
	}
	dataOffset := int64(binary.LittleEndian.Uint64(offB[:]))
	if dataOffset < diskMagicLen+8 || dataOffset > st.Size() {
		return nil, fmt.Errorf("disk index data offset %d implausible for %d bytes", dataOffset, st.Size())
	}

	meta := wire.NewReader(io.NewSectionReader(f, diskMagicLen+8, dataOffset-diskMagicLen-8))
	o, err := readOptions(meta, version)
	if err != nil {
		return nil, err
	}
	n, d := meta.Int(), meta.Int()
	if err := meta.Err(); err != nil {
		return nil, err
	}
	if n < 0 || d <= 0 || d > 1<<20 || int64(n) > (st.Size()-dataOffset)/(4*int64(d)) {
		return nil, fmt.Errorf("disk index shape %dx%d implausible for %d row bytes", n, d, st.Size()-dataOffset)
	}
	var quant *vec.QuantizedMatrix
	if version >= 2 {
		if quant, err = readQuant(meta, n, d); err != nil {
			return nil, err
		}
	}
	tree, km, groups, err := readStructure(meta, o, n)
	if err != nil {
		return nil, err
	}
	rows := make([]byte, 4*n*d)
	if _, err := f.ReadAt(rows, dataOffset); err != nil {
		return nil, fmt.Errorf("reading disk index rows: %w", err)
	}
	data := &vec.Matrix{Data: mmap.DecodeFloat32s(rows), N: n, D: d}
	return newIndex(o, data, quant, tree, km, groups), nil
}
