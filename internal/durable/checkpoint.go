package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Checkpoint files wrap an opaque payload (the serialized index) with a
// generation number so recovery can tell whether the WAL next to the
// checkpoint extends it or predates it (a crash between the checkpoint
// rename and the WAL reset leaves a stale, already-folded log behind).
//
// Layout:
//
//	[ 0,16)  magic "bilsh.CKPT/1" zero-padded
//	[16,24)  generation, little endian
//	[24,28)  CRC32C over bytes [0,24), little endian
//	[28, …)  payload
const ckptHeaderLen = 28

// CheckpointHeaderLen is the byte offset where the payload starts —
// exported so payload formats that embed absolute offsets (the paged
// index layout) know their base within the checkpoint file.
const CheckpointHeaderLen = ckptHeaderLen

var ckptMagic = [16]byte{'b', 'i', 'l', 's', 'h', '.', 'C', 'K', 'P', 'T', '/', '1'}

// ErrBadCheckpoint reports a checkpoint whose header is torn or corrupt.
var ErrBadCheckpoint = errors.New("durable: bad checkpoint header")

// WriteCheckpoint atomically replaces the checkpoint at path: the header
// and payload stream to path+".tmp", which is fsynced and renamed over
// path, and the directory is synced (see AtomicWrite). Until the rename
// lands, the previous checkpoint remains intact. write receives the temp
// file positioned at the payload (CheckpointHeaderLen).
func WriteCheckpoint(path string, gen uint64, write func(*os.File) error) error {
	err := AtomicWrite(path, func(f *os.File) error {
		var h [ckptHeaderLen]byte
		copy(h[:], ckptMagic[:])
		binary.LittleEndian.PutUint64(h[16:], gen)
		binary.LittleEndian.PutUint32(h[24:], crc32.Checksum(h[:24], castagnoli))
		if _, err := f.Write(h[:]); err != nil {
			return err
		}
		return write(f)
	})
	if err != nil {
		return err
	}
	metCheckpoints.Inc()
	return nil
}

// CheckpointFileName is the checkpoint's name inside a data directory —
// shared by the durable index (which writes it) and the shard server's
// GET /checkpoint export (which ships it to replicas).
const CheckpointFileName = "index.ckpt"

// ExportCheckpoint opens the checkpoint inside data directory dir for
// shipping to a replica: it validates the header, then returns the
// generation plus a reader positioned at byte 0 — the caller streams the
// complete file (header included), so the fetched copy drops into the
// replica's data directory unchanged and OpenDurable recovers from it.
// Missing files surface the os.Open error (check os.IsNotExist).
func ExportCheckpoint(dir string) (gen uint64, rc io.ReadCloser, size int64, err error) {
	path := filepath.Join(dir, CheckpointFileName)
	gen, f, err := OpenCheckpoint(path)
	if err != nil {
		return 0, nil, 0, err
	}
	st, err := f.Stat()
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return 0, nil, 0, err
	}
	return gen, f, st.Size(), nil
}

// OpenCheckpoint validates the checkpoint at path and returns its
// generation plus the open file positioned at the payload. Missing files
// surface the os.Open error (check os.IsNotExist).
func OpenCheckpoint(path string) (uint64, *os.File, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	var h [ckptHeaderLen]byte
	if _, err := io.ReadFull(f, h[:]); err != nil {
		f.Close()
		return 0, nil, fmt.Errorf("%w: %s", ErrBadCheckpoint, path)
	}
	if string(h[:16]) != string(ckptMagic[:]) ||
		binary.LittleEndian.Uint32(h[24:]) != crc32.Checksum(h[:24], castagnoli) {
		f.Close()
		return 0, nil, fmt.Errorf("%w: %s", ErrBadCheckpoint, path)
	}
	return binary.LittleEndian.Uint64(h[16:]), f, nil
}
