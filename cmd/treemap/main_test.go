package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

func TestRunFlagValidation(t *testing.T) {
	tests := []struct {
		name    string
		opts    options
		wantErr string
	}{
		{"stencil ok", options{topoSpec: "pack:4 core:4 pu:1", stencil: "4x4", dist: true}, ""},
		{"ring ok", options{topoSpec: "pack:2 core:4 pu:2", ring: 8, controls: true, dist: true}, ""},
		{"braced topo", options{topoSpec: "node:2{pack:2 core:4}", ring: 8}, ""},
		{"one-task stencil", options{topoSpec: "pack:4 core:4 pu:1", stencil: "1x1"}, ""},
		{"one-task ring", options{topoSpec: "pack:4 core:4 pu:1", ring: 1}, ""},
		{"no source", options{topoSpec: "pack:4 core:4 pu:1"}, "one of -matrix, -stencil, -ring is required"},
		{"bad topo", options{topoSpec: "wat:3", ring: 4}, "unknown object kind"},
		{"bad stencil shape", options{topoSpec: "pack:4 core:4 pu:1", stencil: "16"}, "bad -stencil"},
		{"bad stencil numbers", options{topoSpec: "pack:4 core:4 pu:1", stencil: "0x4"}, "bad -stencil"},
		{"missing matrix file", options{topoSpec: "pack:4 core:4 pu:1", matrixF: "/does/not/exist"}, "no such file"},
		{"uneven topo rejected", options{topoSpec: "pack:3 core:2,1,1 pu:1", ring: 4}, "uneven topology"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			err := run(tc.opts, &b)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if strings.Contains(b.String(), "NaN") {
					t.Errorf("report prints a NaN:\n%s", b.String())
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid options, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestRunGoldenStencil(t *testing.T) {
	var b strings.Builder
	if err := run(options{topoSpec: "pack:4 core:4 pu:1", stencil: "4x4", dist: true}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"topology: Machine (4 Package, 4 NUMANode, 16 Core, 16 PU) -> abstract tree[4 4] (16 cores)",
		"matrix: order 16, total volume 48360",
		"virtual arity: 1",
		"b(0,0)       -> core",
		"hop-weighted cost: treematch",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// TreeMatch must beat round-robin on this stencil: the report ends with
	// the ratio, which has to stay below 100%.
	if !strings.Contains(out, "% of baseline)") {
		t.Fatalf("missing cost report:\n%s", out)
	}
}

func TestRunGoldenControls(t *testing.T) {
	var b strings.Builder
	if err := run(options{topoSpec: "pack:2 core:4 pu:2", ring: 8, controls: true, dist: true}, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"control strategy: hyperthread, virtual arity: 1",
		"control -> core",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRunDistributeSpreadsRing maps a 4-task ring onto 4 packages of 4
// cores: -distribute spreads it over all four packages, and without it the
// ring packs onto one.
func TestRunDistributeSpreadsRing(t *testing.T) {
	core := regexp.MustCompile(`-> core (\d+) `)
	for _, c := range []struct {
		dist bool
		want int
	}{{true, 4}, {false, 1}} {
		var b strings.Builder
		if err := run(options{topoSpec: "pack:4 core:4 pu:1", ring: 4, dist: c.dist}, &b); err != nil {
			t.Fatal(err)
		}
		packages := map[int]bool{}
		for _, match := range core.FindAllStringSubmatch(b.String(), -1) {
			n, _ := strconv.Atoi(match[1])
			packages[n/4] = true
		}
		if len(packages) != c.want {
			t.Errorf("-distribute=%v: ring on %d packages, want %d:\n%s", c.dist, len(packages), c.want, b.String())
		}
	}
}

func TestRunMatrixFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.txt")
	content := "# tiny ring\n3\n0 5 0\n5 0 5\n0 5 0\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(options{topoSpec: "pack:1 core:4 pu:1", matrixF: path, dist: true}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "matrix: order 3, total volume 20") {
		t.Errorf("unexpected matrix report:\n%s", b.String())
	}
}

// TestRunGoldenAsymmetric maps an asymmetric matrix file with fractional
// volumes, explicit zeros, -0 and diagonal entries: the greedy fill walks its
// symmetrised adjacency. The golden was recorded with the every-entity scan
// fill (the oracle in internal/treematch), so it pins the fill to the scan
// end to end.
func TestRunGoldenAsymmetric(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "asymmetric.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run(options{topoSpec: "pack:4 core:4 pu:1", matrixF: filepath.Join("testdata", "asymmetric.txt"), dist: true}, &b); err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("treemap -matrix testdata/asymmetric.txt differs from testdata/asymmetric.golden:\n%s", b.String())
	}
}

// TestNegativeVolumeExitsCleanly runs the built command on a matrix file
// with a negative volume: it exits non-zero with one line naming the row and
// the entry, and no panic.
func TestNegativeVolumeExitsCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the command build in -short mode")
	}
	dir := t.TempDir()
	bin, matrix := filepath.Join(dir, "treemap"), filepath.Join(dir, "neg.txt")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
	if err := os.WriteFile(matrix, []byte("3\n0 -5 1\n-5 0 2\n1 2 0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-matrix", matrix).CombinedOutput()
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("treemap -matrix neg.txt: %v, want a non-zero exit\n%s", err, out)
	}
	want := "treemap: comm: row 0 entry 1: volume -5 is negative\n"
	if string(out) != want {
		t.Errorf("treemap -matrix neg.txt printed %q, want %q", out, want)
	}
}

// TestGeneratorMemoryFollowsNonzeros builds the -ring and -stencil matrices
// through loadMatrix and bounds what they allocate: a few nonzeros per row,
// where an order-by-order array of the same matrices would take 128 MB and
// 134 MB.
func TestGeneratorMemoryFollowsNonzeros(t *testing.T) {
	for _, c := range []struct {
		stencil string
		ring    int
	}{{ring: 4000}, {stencil: "64x64"}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := loadMatrix("", c.stencil, c.ring)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
			t.Errorf("-ring %d -stencil %q: order %d allocated %d bytes, want <= 8 MiB", c.ring, c.stencil, m.Order(), got)
		}
	}
}
