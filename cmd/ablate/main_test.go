package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiment"
)

func TestBuildConfigValidation(t *testing.T) {
	tests := []struct {
		name                     string
		rows, cols, iters, cores int
		full                     bool
		wantErr                  string
	}{
		{"reduced scale", 4096, 4096, 10, 48, false, ""},
		{"full overrides bad scale flags", -1, -1, -1, -1, true, ""},
		{"negative cores", 4096, 4096, 10, -48, false, "core count"},
		{"tiny grid", 2, 4096, 10, 48, false, "too small"},
		{"negative iters", 4096, 4096, -10, 48, false, "iteration count"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildConfig(tc.rows, tc.cols, tc.iters, tc.cores, 7, tc.full)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted invalid config, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestSelectAblations(t *testing.T) {
	ids := func(exp string) string {
		t.Helper()
		sel, err := experiment.SelectStudies(exp)
		if err != nil {
			t.Fatalf("selector %q: %v", exp, err)
		}
		var out []string
		for _, s := range sel {
			out = append(out, s.ID)
		}
		return strings.Join(out, " ")
	}
	const ablations = "A1 A2 A3 A4 A5 A6 A7 A8 A9 A10 A11 A12 A13 A14 A15 A16"
	for exp, want := range map[string]string{
		"all":            ablations,
		"shift,adaptive": "A8 A12", // report order, not list order
		// "all" is a list member like any other.
		"all,shift":   ablations,
		"shift, all":  ablations,
		"shift,shift": "A12",
	} {
		if got := ids(exp); got != want {
			t.Errorf("selector %q picks %q, want %q", exp, got, want)
		}
	}
	// "scale" named the S1 placement-latency study, which simulated nothing;
	// the benchmark module's place-scale workload measures that now.
	for _, bad := range []string{"nonsense", "shift,nonsense", "all,nonsense", ",", "",
		"scale", "all,scale", "scale, all"} {
		_, err := experiment.SelectStudies(bad)
		if err == nil {
			t.Errorf("selector %q accepted", bad)
		} else if !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("selector %q: error %q does not say \"unknown experiment\"", bad, err)
		}
	}
}

// TestRunJSONReport drives the machine-readable mode end to end on the A12
// ablation: the report must carry the schema marker, per-row seconds and
// cycle counts (consistent with each other), the asserted orderings with
// passing verdicts, and no host-clock reading.
func TestRunJSONReport(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, cfg, "shift", true); err != nil {
		t.Fatalf("run -json: %v\n%s", err, buf.String())
	}
	var report benchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Schema != "repro-bench/2" {
		t.Errorf("schema %q, want repro-bench/2", report.Schema)
	}
	// repro-bench/2 rows are simulated time only: a row key beyond these four
	// (the host-clock reading schema 1 carried, under any name) would make
	// the document irreproducible bytes again.
	var raw struct {
		Ablations []struct{ Rows []map[string]any }
	}
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, a := range raw.Ablations {
		for _, row := range a.Rows {
			for key := range row {
				if key != "name" && key != "seconds" && key != "cycles" && key != "detail" {
					t.Errorf("row %v carries key %q; the host clock belongs to benchmark/ only", row["name"], key)
				}
			}
		}
	}
	if report.Seed != 42 {
		t.Errorf("seed %d, want 42", report.Seed)
	}
	if len(report.Ablations) != 1 {
		t.Fatalf("%d ablations, want 1: %+v", len(report.Ablations), report)
	}
	a := report.Ablations[0]
	if a.ID != "A12" || a.Exp != "shift" {
		t.Errorf("ablation identity %s/%s, want A12/shift", a.ID, a.Exp)
	}
	if len(a.Rows) != 4 {
		t.Errorf("%d rows, want the 4 shift arms", len(a.Rows))
	}
	for _, r := range a.Rows {
		if r.Seconds <= 0 || r.Cycles <= 0 {
			t.Errorf("row %s has non-positive cost: %+v", r.Name, r)
		}
		if want := simFloat(experiment.SimCycles(float64(r.Seconds))); r.Cycles != want {
			t.Errorf("row %s cycles %v inconsistent with seconds (want %v)", r.Name, r.Cycles, want)
		}
	}
	if len(a.Orderings) != len(experiment.AblationOrderings("shift")) {
		t.Fatalf("%d ordering verdicts, want %d", len(a.Orderings), len(experiment.AblationOrderings("shift")))
	}
	for _, o := range a.Orderings {
		if !o.OK {
			t.Errorf("asserted ordering %q violated in the reduced-shape run", o.Relation)
		}
	}
}

// TestRunFaultSeverPartition pins how the report carries a fault run that
// never finishes: a sever that partitions the platform prices every
// transfer across it +Inf, so every arm's row has +Inf seconds. Text mode
// renders each row as "unbounded" with no speedup; -json carries the
// figures as "+Inf" strings, which a JSON number cannot hold, and no strict
// ordering holds between the rows.
func TestRunFaultSeverPartition(t *testing.T) {
	inf := math.Inf(1)
	rows := []experiment.AblationRow{
		{Name: "fault/fault-aware", Seconds: inf, Detail: "faults=1"},
		{Name: "fault/static-respawn", Seconds: inf, Detail: "faults=1"},
	}
	text := experiment.FormatAblation("A14: partitioned", rows)
	for _, row := range strings.Split(strings.TrimSpace(text), "\n")[1:] {
		if !strings.Contains(row, " unbounded  x-     faults=1") {
			t.Errorf("partitioned row %q does not render as unbounded with no speedup", row)
		}
	}
	strict := []experiment.Ordering{{Before: rows[0].Name, After: rows[1].Name, Strict: true}}
	if experiment.CheckOrderings(rows, strict) == nil {
		t.Errorf("ordering %v holds between unbounded rows", strict[0])
	}
	for _, c := range []struct {
		v    float64
		want string
	}{{inf, `"+Inf"`}, {math.Inf(-1), `"-Inf"`}, {math.NaN(), `"NaN"`}} {
		got, err := json.Marshal(benchRow{Name: "r", Seconds: simFloat(c.v), Cycles: simFloat(experiment.SimCycles(c.v))})
		if err != nil {
			t.Fatalf("%v: %v", c.v, err)
		}
		if want := `{"name":"r","seconds":` + c.want + `,"cycles":` + c.want + `}`; string(got) != want {
			t.Errorf("%v encodes as %s, want %s", c.v, got, want)
		}
	}
}

// TestRunHumanReport pins the default rendering path.
func TestRunHumanReport(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	var buf bytes.Buffer
	if err := run(&buf, cfg, "shift", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "A12") || !strings.Contains(out, "shift/adaptive-fabric") {
		t.Errorf("human report misses the A12 rows:\n%s", out)
	}
}

// TestWriteStudyNamesViolations forces a violation: the text report
// follows the study's rows with one line per broken ordering and none for
// the orderings that hold.
func TestWriteStudyNamesViolations(t *testing.T) {
	rows := []experiment.AblationRow{{Name: "x/slow", Seconds: 2}, {Name: "x/fast", Seconds: 1}}
	var buf bytes.Buffer
	writeStudy(&buf, "AX · forced", rows, []experiment.Ordering{
		{Before: "x/fast", After: "x/slow", Strict: true},
		{Before: "x/slow", After: "x/fast", Strict: true},
		{Before: "x/slow", After: "x/fast"},
	})
	want := experiment.FormatAblation("AX · forced", rows) + "violated: x/slow < x/fast\nviolated: x/slow <= x/fast\n\n"
	if got := buf.String(); got != want {
		t.Errorf("text report:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunAllGolden pins the whole human-readable report: the stdout of
// `ablate -exp all` at the default scale and seed is deterministic, and
// testdata/all.golden was generated before the study registry and the
// shared stencil/run harness replaced the per-study copies, so any drift in
// a simulated figure, a row name, a title or the report order fails here.
func TestRunAllGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation at the reduced scale (~5 s)")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, experiment.Reduced, "all", false); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("ablate -exp all drifted from testdata/all.golden:\n%s", firstDiff(string(want), got))
	}
}

// TestRecordedViolations pins the orderings `ablate -exp all` breaks off
// the reduced scale's default cell, as ROADMAP H3 records them: the text
// report's "violated:" lines in report order, nothing fixed. A fix or a new
// violation shows up here as a diff of these lists.
func TestRecordedViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study at two configurations (~2 s)")
	}
	for _, c := range []struct {
		cores int
		seed  int64
		want  []string
	}{
		{8, experiment.Reduced.Seed, []string{
			"spare/mapped < spare/unmapped",
			"orwl-bind < omp/static",
			"phase/adaptive < phase/static",
			"rack/rack-aware < rack/rack-blind",
		}},
		{96, 3, []string{
			"omp/guided < omp/dynamic",
			"rack/rack-blind < rack/flat",
		}},
	} {
		r := experiment.Reduced
		cfg, err := buildConfig(r.Rows, r.Cols, r.Iters, c.cores, c.seed, false)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run(&buf, cfg, "all", false); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if rel, ok := strings.CutPrefix(line, "violated: "); ok {
				got = append(got, rel)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("-cores %d -seed %d violates %q, want %q", c.cores, c.seed, got, c.want)
		}
	}
}

// TestBenchArtifacts is the simulated-clock drift gate: every committed
// bench/BENCH_*.json is a -json document generated with default flags, so it
// names its own seed and studies; regenerating it through the run that main
// calls must give the committed bytes. A moved cycle count, detail, title or
// ordering verdict fails here, as does an artifact naming an unknown study;
// an ordering violation fails as run's error.
func TestBenchArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every bench artifact at the reduced scale (~3 s)")
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "bench", "BENCH_*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bench artifacts found (err %v); the gate is reading the wrong directory", err)
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var doc benchReport
			if err := json.Unmarshal(want, &doc); err != nil {
				t.Fatalf("not a -json document: %v", err)
			}
			var exps []string
			for _, a := range doc.Ablations {
				exps = append(exps, a.Exp)
			}
			exp := strings.Join(exps, ",")
			cfg := experiment.Reduced
			cfg.Seed = doc.Seed
			var buf bytes.Buffer
			if err := run(&buf, cfg, exp, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("simulated results drifted from the committed artifact:\n%s\nif the change is intended: go run ./cmd/ablate -exp %s -seed %d -json > bench/%s",
					firstDiff(string(want), buf.String()), exp, doc.Seed, filepath.Base(path))
			}
		})
	}
}

// TestRunJSONDeterministic states the house rule for the machine-readable
// report: same studies, configuration and seed give the same bytes, run
// after run and whatever GOMAXPROCS is.
func TestRunJSONDeterministic(t *testing.T) {
	report := func() string {
		t.Helper()
		var buf bytes.Buffer
		if err := run(&buf, experiment.Reduced, "rack,hetero,sched", true); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	one := report()
	if again := report(); again != one {
		t.Errorf("two runs at GOMAXPROCS 1 differ:\n%s", firstDiff(one, again))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	if wide := report(); wide != one {
		t.Errorf("GOMAXPROCS %d differs from GOMAXPROCS 1:\n%s", runtime.NumCPU(), firstDiff(one, wide))
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(no difference)"
}
