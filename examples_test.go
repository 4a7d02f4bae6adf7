package repro

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// exampleChecks maps each program under examples/ to the line it prints
// only when its own check of the result passed.
var exampleChecks = map[string]string{
	"quickstart": "counter: 20 (want 20)",
	"heat":       "validated against the sequential reference",
	"livermore":  "validated:",
	"pipeline":   "pipeline order verified",
	"tracing":    "wrote trace.json",
}

// TestExamplesRun builds every example into a temporary directory and runs
// it there (tracing writes trace.json into its working directory): each must
// exit 0 and print its self-check line.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping the example runs in -short mode")
	}
	dirs, err := filepath.Glob("examples/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if _, ok := exampleChecks[filepath.Base(d)]; !ok {
			t.Errorf("%s has no self-check line in exampleChecks", d)
		}
	}
	dir := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/... failed: %v\n%s", err, out)
	}
	for name, check := range exampleChecks {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(filepath.Join(dir, name))
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("%s failed: %v\n%s", name, err, out)
			}
			if !strings.Contains(string(out), check) {
				t.Errorf("%s did not print %q:\n%s", name, check, out)
			}
		})
	}
}
