package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// manifest mirrors ../BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesDeclarations pins BENCHMARK.json to the tables the
// program emits from, and both to the limits of the benchmark contract.
func TestManifestMatchesDeclarations(t *testing.T) {
	m := readManifest(t)
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n go   %+v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %+v\n go   %+v", m.PerLayer, perLayer)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(workloads))
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", m.RunSeconds, defaultSeconds)
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		t.Helper()
		if !nameRe.MatchString(name) {
			t.Errorf("name %q outside the allowed alphabet", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for i, w := range m.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q, program has %q", i, w.Name, workloads[i].name)
		}
		if w.Why != workloads[i].why || len(w.Why) > 200 {
			t.Errorf("workload %q: why differs from workloads.go or exceeds 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		check(d.Name)
		if !unitRe.MatchString(d.Unit) {
			t.Errorf("metric %q: unit %q outside the allowed alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// TestWorkloadsSmoke runs every workload in-process for two ops, untraced
// and traced, and checks that no op fails and that each pass emits exactly
// the declared metric names.
func TestWorkloadsSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // out/ lands in the temporary directory
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			detail, err := runWorkload(runConfig{workload: w.name, seed: 1, ops: 2, warmup: 0, trace: traced})
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, traced, err)
			}
			r := detail.Result
			if !r.Correct || r.Failed != 0 || r.Attempted < 2 {
				t.Errorf("%s (trace %v): correct=%v failed=%d attempted=%d: %s",
					w.name, traced, r.Correct, r.Failed, r.Attempted, detail.FirstError)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s (trace %v): %d metrics emitted, %d declared", w.name, traced, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := r.Metrics[d.Name]
				if !ok || v.Unit != d.Unit {
					t.Errorf("%s (trace %v): metric %s missing or in unit %q, want %q", w.name, traced, d.Name, v.Unit, d.Unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.Name, v.Value)
				}
			}
			if traced {
				if _, err := os.Stat("out/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no Chrome trace written: %v", w.name, err)
				}
			}
		}
	}
}
