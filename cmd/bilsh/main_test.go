package main

import (
	"bytes"
	"os"
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

// stdout runs fn with os.Stdout redirected to a file and returns what fn
// printed.
func stdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	err = fn()
	os.Stdout = saved
	f.Close()
	out, rerr := os.ReadFile(f.Name())
	if rerr != nil {
		t.Fatal(rerr)
	}
	return string(out), err
}

// TestUpgradeAndInfoCommands: upgrade leaves a current file (either
// layout) byte-identical and refuses garbage; info reports a -disk build
// as disk-backed and a self-contained one as in-memory.
func TestUpgradeAndInfoCommands(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	if err := cmdGen([]string{"-n", "300", "-d", "8", "-clusters", "4", "-intrinsic", "2", "-out", data}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	self := filepath.Join(dir, "index.bilsh")
	disk := filepath.Join(dir, "index.disk")
	for _, args := range [][]string{{"-out", self}, {"-out", disk, "-disk"}} {
		if err := cmdBuild(append([]string{"-data", data, "-groups", "2", "-l", "3"}, args...)); err != nil {
			t.Fatalf("build %v: %v", args, err)
		}
	}

	for _, index := range []string{self, disk} {
		before, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		out, err := stdout(t, func() error { return cmdUpgrade([]string{"-in", index}) })
		if err != nil || !strings.Contains(out, "unchanged") {
			t.Fatalf("upgrade -in %s: %v, printed %q", index, err, out)
		}
		after, err := os.ReadFile(index)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("upgrade rewrote the current file %s", index)
		}
	}
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("definitely not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdUpgrade([]string{"-in", garbage}); err == nil {
		t.Fatal("upgrade accepted garbage")
	}

	for index, want := range map[string]string{disk: "disk-backed", self: "in-memory"} {
		out, err := stdout(t, func() error { return cmdInfo([]string{"-index", index}) })
		if err != nil || !strings.Contains(out, want) {
			t.Fatalf("info -index %s: %v, want %q in:\n%s", index, err, want, out)
		}
	}
}

// TestSearchAndBuildShareMethodFlags: search parses its method flags with
// build's parser, so -lattice E8 -probe multi reaches the method line, and
// a lattice neither knows is refused by both with an error naming the two
// that exist.
func TestSearchAndBuildShareMethodFlags(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "data.fvecs")
	queries := filepath.Join(dir, "q.fvecs")
	if err := cmdGen([]string{"-n", "300", "-d", "8", "-clusters", "4", "-intrinsic", "2",
		"-out", data, "-queries", queries, "-nq", "5"}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	search := []string{"-data", data, "-queries", queries, "-groups", "2", "-l", "3"}
	out, err := stdout(t, func() error {
		return cmdSearch(append(search, "-lattice", "E8", "-probe", "multi"))
	})
	if err != nil {
		t.Fatalf("search -lattice E8 -probe multi: %v", err)
	}
	if want := "method: bilevel=true lattice=E8 probe=multiprobe groups=2 M=8 L=3 Wx=1\n"; !strings.Contains(out, want) {
		t.Fatalf("search printed no %q line:\n%s", want, out)
	}

	build := []string{"-data", data, "-out", filepath.Join(dir, "index.bilsh")}
	for _, c := range []struct {
		name string
		run  func([]string) error
		args []string
	}{{"search", cmdSearch, search}, {"build", cmdBuild, build}} {
		err := c.run(append(c.args, "-lattice", "Dn"))
		if err == nil || !strings.Contains(err.Error(), "ZM") || !strings.Contains(err.Error(), "E8") {
			t.Fatalf("%s -lattice Dn: got %v, want an error naming ZM and E8", c.name, err)
		}
	}
}
