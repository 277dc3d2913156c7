package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestAtomicWriteReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteFileAtomic(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new contents")); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "new contents" {
		t.Fatalf("read back %q", b)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestAtomicWriteFailureKeepsOld(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.bin")
	if err := WriteFileAtomic(path, []byte("precious")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := AtomicWrite(path, func(f *os.File) error {
		f.Write([]byte("partial garbage")) //nolint:errcheck
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("AtomicWrite returned %v, want boom", err)
	}
	b, _ := os.ReadFile(path)
	if string(b) != "precious" {
		t.Fatalf("failed write clobbered the original: %q", b)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind after failure: %v", err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ckpt")
	payload := []byte("serialized index bytes")
	err := WriteCheckpoint(path, 7, func(f *os.File) error {
		_, werr := f.Write(payload)
		return werr
	})
	if err != nil {
		t.Fatal(err)
	}
	gen, r, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if gen != 7 {
		t.Fatalf("gen = %d, want 7", gen)
	}
	got := make([]byte, len(payload)+10)
	n, _ := r.Read(got)
	if string(got[:n]) != string(payload) {
		t.Fatalf("payload %q, want %q", got[:n], payload)
	}
}

func TestCheckpointRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.ckpt")
	if err := WriteFileAtomic(path, []byte("not a checkpoint at all....")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCheckpoint(path); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("got %v, want ErrBadCheckpoint", err)
	}
	// Torn header (shorter than the fixed prefix).
	if err := os.WriteFile(path, []byte("bilsh.CKPT/1"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCheckpoint(path); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("torn: got %v, want ErrBadCheckpoint", err)
	}
	// Missing file surfaces the os error so callers can seed fresh state.
	if _, _, err := OpenCheckpoint(filepath.Join(t.TempDir(), "absent")); !os.IsNotExist(err) {
		t.Fatalf("missing: got %v, want IsNotExist", err)
	}
}
