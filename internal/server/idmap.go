package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
)

// IDMap translates between a shard's local row ids and cluster-global
// ids. A shard index numbers its rows 0..n-1 in its own order, but the
// cluster speaks one global id space (the monolithic index's row ids, or
// the router's allocation for overlay inserts); with an IDMap installed
// (SetIDMap) the server translates result ids on the way out and delete
// targets on the way in, so clients never see shard-local ids.
//
// `bilsh shard-split` seeds the map (one "local global" pair per line);
// the server appends a line per insert when the map was opened with
// OpenIDMap, so a restart recovers the assignments recorded before the
// crash. The append happens after the insert is acknowledged by the
// index, which means a crash between the two can leave the newest
// insert's global id unrecorded — docs/sharding.md's failure matrix
// covers the operational consequences.
type IDMap struct {
	mu  sync.RWMutex
	fwd map[int]int // local -> global
	rev map[int]int // global -> local
	max int         // largest global id seen; -1 when empty

	persist *os.File // append log, nil for in-memory maps
}

// ErrDuplicateGlobalID reports an insert that supplied a global id the
// shard already holds; the HTTP layer maps it to 409.
var ErrDuplicateGlobalID = errors.New("server: global id already mapped")

// NewIDMap builds an in-memory map from parallel local/global slices
// (tests and in-process clusters).
func NewIDMap(locals, globals []int) (*IDMap, error) {
	if len(locals) != len(globals) {
		return nil, fmt.Errorf("server: idmap got %d locals, %d globals", len(locals), len(globals))
	}
	m := emptyIDMap()
	for i := range locals {
		if err := m.record(locals[i], globals[i]); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func emptyIDMap() *IDMap {
	return &IDMap{fwd: make(map[int]int), rev: make(map[int]int), max: -1}
}

// LoadIDMap reads a map file: text lines "local global", in any order.
func LoadIDMap(path string) (*IDMap, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readIDMap(f, path)
}

// OpenIDMap loads path (creating an empty file when missing) and keeps it
// open for appends: every Assign writes and syncs its "local global" line
// before returning, so acknowledged assignments survive restarts.
func OpenIDMap(path string) (*IDMap, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	m, err := readIDMap(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	m.persist = f
	return m, nil
}

// readIDMap parses the map file format: one "local global" pair per line,
// blank lines skipped. name labels errors.
func readIDMap(r io.Reader, name string) (*IDMap, error) {
	m := emptyIDMap()
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var local, global int
		if _, err := fmt.Sscanf(sc.Text(), "%d %d", &local, &global); err != nil {
			return nil, fmt.Errorf("server: %s:%d: %v", name, line, err)
		}
		if err := m.record(local, global); err != nil {
			return nil, fmt.Errorf("server: %s:%d: %v", name, line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("server: %s: %w", name, err)
	}
	return m, nil
}

// Close releases the append log, if any.
func (m *IDMap) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.persist == nil {
		return nil
	}
	err := m.persist.Close()
	m.persist = nil
	return err
}

// record adds one pair; caller holds mu (or owns the map exclusively).
func (m *IDMap) record(local, global int) error {
	if _, dup := m.rev[global]; dup {
		return fmt.Errorf("%w: %d", ErrDuplicateGlobalID, global)
	}
	if old, dup := m.fwd[local]; dup {
		return fmt.Errorf("server: local id %d already mapped to %d", local, old)
	}
	m.fwd[local] = global
	m.rev[global] = local
	if global > m.max {
		m.max = global
	}
	return nil
}

// Global translates a local id, falling back to identity for unmapped
// ids so a partially seeded map fails loudly in equivalence checks
// rather than dropping results.
func (m *IDMap) Global(local int) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if g, ok := m.fwd[local]; ok {
		return g
	}
	return local
}

// Local translates a global id; ok is false when this shard does not
// hold it.
func (m *IDMap) Local(global int) (int, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	l, ok := m.rev[global]
	return l, ok
}

// MaxGlobal returns the largest global id this shard has seen (-1 when
// empty); the router initializes its id allocator from the cluster-wide
// maximum.
func (m *IDMap) MaxGlobal() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.max
}

// Len returns the number of mapped rows.
func (m *IDMap) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.fwd)
}

// Remap rewrites every local id through mapping (core.Index.Compact's
// old→new table; -1 = the row was deleted), keeping global ids stable
// across the compaction's local renumbering. Mappings whose global id
// was deleted are dropped. The persisted log, if any, is rewritten in
// place so a restart recovers the post-compaction state.
func (m *IDMap) Remap(mapping []int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	fwd := make(map[int]int, len(m.fwd))
	rev := make(map[int]int, len(m.fwd))
	for old, global := range m.fwd {
		if old >= len(mapping) {
			return fmt.Errorf("server: idmap remap: local id %d outside remap table (len %d)", old, len(mapping))
		}
		nu := mapping[old]
		if nu < 0 {
			continue // deleted row; its global id is gone
		}
		if prev, dup := fwd[nu]; dup {
			return fmt.Errorf("server: idmap remap: new local id %d claimed by globals %d and %d", nu, prev, global)
		}
		fwd[nu] = global
		rev[global] = nu
	}
	m.fwd, m.rev = fwd, rev
	// max is monotone: deleted global ids stay burned so the router's
	// allocator can never re-issue one.
	if m.persist != nil {
		if err := m.persist.Truncate(0); err != nil {
			return fmt.Errorf("server: idmap rewrite: %w", err)
		}
		locals := make([]int, 0, len(fwd))
		for l := range fwd {
			locals = append(locals, l)
		}
		sort.Ints(locals)
		for _, l := range locals {
			if _, err := fmt.Fprintf(m.persist, "%d %d\n", l, fwd[l]); err != nil {
				return fmt.Errorf("server: idmap rewrite: %w", err)
			}
		}
		if err := m.persist.Sync(); err != nil {
			return fmt.Errorf("server: idmap rewrite: %w", err)
		}
	}
	return nil
}

// WriteTo dumps the map in its file format (text lines "local global",
// ascending local id) — GET /idmap streams this to replicas.
func (m *IDMap) WriteTo(w io.Writer) (int64, error) {
	m.mu.RLock()
	locals := make([]int, 0, len(m.fwd))
	for l := range m.fwd {
		locals = append(locals, l)
	}
	pairs := make([][2]int, 0, len(locals))
	sort.Ints(locals)
	for _, l := range locals {
		pairs = append(pairs, [2]int{l, m.fwd[l]})
	}
	m.mu.RUnlock()
	var n int64
	for _, p := range pairs {
		c, err := fmt.Fprintf(w, "%d %d\n", p[0], p[1])
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// InsertWith runs insert and records its returned local id under global
// (or under max+1 when global is negative — the direct, router-less
// insert path), holding the map lock across both so two racing inserts
// cannot claim the same global id or interleave their append-log lines.
// A duplicate global id fails before the index is touched
// (ErrDuplicateGlobalID). It returns the global id actually assigned.
func (m *IDMap) InsertWith(global int, insert func() (int, error)) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if global < 0 {
		global = m.max + 1
	}
	if _, dup := m.rev[global]; dup {
		return 0, fmt.Errorf("%w: %d", ErrDuplicateGlobalID, global)
	}
	local, err := insert()
	if err != nil {
		return 0, err
	}
	if err := m.record(local, global); err != nil {
		// The vector is in the index but unaddressable by global id —
		// surface loudly; only a local-id collision can land here and
		// that means the map was seeded against a different index.
		return 0, err
	}
	if m.persist != nil {
		if _, err := fmt.Fprintf(m.persist, "%d %d\n", local, global); err != nil {
			return 0, fmt.Errorf("server: idmap append: %w", err)
		}
		if err := m.persist.Sync(); err != nil {
			return 0, fmt.Errorf("server: idmap sync: %w", err)
		}
	}
	return global, nil
}
