package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestQueryCommand drives the query command end to end over an index built
// by the CLI's own gen and build commands: a valid k answers, and k < 1 is
// refused with an error instead of reaching the index.
func TestQueryCommand(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	queries := filepath.Join(dir, "q.fvecs")
	index := filepath.Join(dir, "index.bilsh")
	if err := cmdGen([]string{"-n", "300", "-d", "8", "-clusters", "4", "-intrinsic", "2",
		"-out", data, "-queries", queries, "-nq", "5"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdBuild([]string{"-data", data, "-out", index, "-groups", "2", "-l", "3"}); err != nil {
		t.Fatalf("build: %v", err)
	}

	query := func(k string) error {
		return cmdQuery([]string{"-index", index, "-queries", queries, "-k", k, "-workers", "2"})
	}
	if err := query("3"); err != nil {
		t.Fatalf("query -k 3: %v", err)
	}
	for _, k := range []string{"0", "-1"} {
		err := query(k)
		if err == nil || !strings.Contains(err.Error(), "-k") {
			t.Fatalf("query -k %s: got %v, want an error naming -k", k, err)
		}
	}
}
