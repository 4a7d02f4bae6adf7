// CI-style repository guards: a go vet pass over every package, a gofmt
// formatting guard and a go.mod tidiness check.
package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestGoVet runs `go vet ./...` over the repository, the static-analysis
// step of the CI pipeline.
func TestGoVet(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go vet in -short mode")
	}
	cmd := exec.Command("go", "vet", "./...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go vet ./... failed:\n%s", out)
	}
}

// TestGofmt mirrors the CI gofmt step in-suite: `gofmt -l` over the
// repository must list no files, so an unformatted file fails `go test`
// locally instead of surfacing only in the workflow.
func TestGofmt(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping gofmt in -short mode")
	}
	cmd := exec.Command("gofmt", "-l", ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("gofmt -l failed: %v\n%s", err, out)
	}
	if files := strings.TrimSpace(string(out)); files != "" {
		t.Fatalf("files need gofmt:\n%s", files)
	}
}

// TestGoModTidy guards against go.mod/go.sum drift: `go mod tidy -diff`
// exits non-zero and prints the needed changes when the module files do not
// match the source's import graph.
func TestGoModTidy(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go mod tidy in -short mode")
	}
	cmd := exec.Command("go", "mod", "tidy", "-diff")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go mod tidy -diff reports drift (run `go mod tidy`):\n%s", out)
	}
}
