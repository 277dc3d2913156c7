package server

import (
	"bytes"
	"errors"
	"path/filepath"
	"reflect"
	"testing"
)

func TestIDMapPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idmap.txt")
	m, err := OpenIDMap(path)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	insert := func() (int, error) { next++; return next - 1, nil }
	if _, err := m.InsertWith(10, insert); err != nil {
		t.Fatal(err)
	}
	if gid, err := m.InsertWith(-1, insert); err != nil || gid != 11 {
		t.Fatalf("auto assign got (%d, %v), want (11, nil)", gid, err)
	}
	// Duplicate global id fails before the index insert runs.
	before := next
	if _, err := m.InsertWith(10, insert); !errors.Is(err, ErrDuplicateGlobalID) {
		t.Fatalf("duplicate gid error %v", err)
	}
	if next != before {
		t.Fatal("insert callback ran for a duplicate global id")
	}
	m.Close()

	back, err := OpenIDMap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Close()
	if back.Len() != 2 || back.MaxGlobal() != 11 {
		t.Fatalf("reopened map: len %d max %d, want 2 and 11", back.Len(), back.MaxGlobal())
	}
	if l, ok := back.Local(10); !ok || l != 0 {
		t.Fatalf("Local(10) = (%d, %v), want (0, true)", l, ok)
	}
	if g := back.Global(1); g != 11 {
		t.Fatalf("Global(1) = %d, want 11", g)
	}

	// Remap (local 0 deleted, local 1 becomes 0) and reopen again: the
	// rewritten log must carry the post-compaction state.
	if err := back.Remap([]int{-1, 0}); err != nil {
		t.Fatal(err)
	}
	if g := back.Global(0); g != 11 {
		t.Fatalf("post-remap Global(0) = %d, want 11", g)
	}
	if _, ok := back.Local(10); ok {
		t.Fatal("deleted global id 10 still resolves")
	}
	if back.MaxGlobal() != 11 {
		t.Fatalf("max global %d after remap, want 11", back.MaxGlobal())
	}
	back.Close()

	again, err := OpenIDMap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Len() != 1 {
		t.Fatalf("re-reopened map holds %d rows, want 1", again.Len())
	}
	if l, ok := again.Local(11); !ok || l != 0 {
		t.Fatalf("re-reopened Local(11) = (%d, %v), want (0, true)", l, ok)
	}
}

// FuzzReadIDMap throws arbitrary text at the id-map file parser shared by
// LoadIDMap and OpenIDMap: it must never panic, and any map it accepts
// must survive WriteTo and a re-read unchanged.
func FuzzReadIDMap(f *testing.F) {
	f.Add([]byte("0 10\n1 11\n\n2 12\n"))
	f.Add([]byte("3 7\n3 8\n"))   // local id mapped twice
	f.Add([]byte("0 5\n1 5\n"))   // global id mapped twice
	f.Add([]byte("-1 -2\n9 x\n")) // negative ids, then a malformed line
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := readIDMap(bytes.NewReader(raw), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := m.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := readIDMap(&buf, "rewritten")
		if err != nil {
			t.Fatalf("accepted map does not re-read: %v", err)
		}
		if !reflect.DeepEqual(m.fwd, back.fwd) || m.MaxGlobal() != back.MaxGlobal() {
			t.Fatalf("map changed across WriteTo: %v (max %d) -> %v (max %d)",
				m.fwd, m.MaxGlobal(), back.fwd, back.MaxGlobal())
		}
	})
}
