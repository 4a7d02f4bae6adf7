package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/sched"
	"repro/internal/topology"
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
	if err := run(&buf, cfg, experiment.Overrides{}, "shift", true); err != nil {
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

// TestParseFaultEvents drives the fault-schedule flag syntax through its
// edge cases: every malformed entry must produce a clean flag-layer error
// (never a panic or a silently dropped entry), and well-formed entries must
// land in experiment coordinates exactly.
func TestParseFaultEvents(t *testing.T) {
	cases := []struct {
		name                 string
		kill, degrade, sever string
		want                 []experiment.FaultEventSpec
		wantErr              string
	}{
		{name: "all empty", want: nil},
		{name: "one kill", kill: "4@2", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultKillNode, Node: 4},
		}},
		{name: "kill list with spaces", kill: " 4@2 , 5@3 ", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultKillNode, Node: 4},
			{Epoch: 3, Kind: topology.FaultKillNode, Node: 5},
		}},
		{name: "degrade", degrade: "1:0:0.5@2", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultDegradeEdge, Level: 1, Link: 0, Factor: 0.5},
		}},
		{name: "sever", sever: "0:3@4", want: []experiment.FaultEventSpec{
			{Epoch: 4, Kind: topology.FaultSeverEdge, Level: 0, Link: 3},
		}},
		{name: "kill and degrade combine", kill: "4@2", degrade: "1:1:0.25@2", want: []experiment.FaultEventSpec{
			{Epoch: 2, Kind: topology.FaultKillNode, Node: 4},
			{Epoch: 2, Kind: topology.FaultDegradeEdge, Level: 1, Link: 1, Factor: 0.25},
		}},
		{name: "kill without epoch", kill: "4", wantErr: "no @epoch"},
		{name: "kill bad node", kill: "x@2", wantErr: "bad node"},
		{name: "kill bad epoch", kill: "4@x", wantErr: "bad epoch"},
		{name: "kill epoch zero", kill: "4@0", wantErr: "not 1-based"},
		{name: "kill negative epoch", kill: "4@-1", wantErr: "not 1-based"},
		{name: "kill too many fields", kill: "4:1@2", wantErr: "want 1"},
		{name: "degrade missing factor", degrade: "1:0@2", wantErr: "want 3"},
		{name: "degrade bad factor", degrade: "1:0:x@2", wantErr: "bad level:link:factor"},
		{name: "sever missing link", sever: "0@1", wantErr: "want 2"},
		{name: "sever bad link", sever: "0:x@1", wantErr: "bad level:link"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseFaultEvents(tc.kill, tc.degrade, tc.sever)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v / err %v, want error containing %q", got, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("parsed %+v, want %+v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("event %d = %+v, want %+v", i, got[i], tc.want[i])
				}
			}
		})
	}
}

// TestRunFaultSemanticErrors pins that syntactically valid fault flags whose
// entries cannot apply to the built platform fail with a clean error from
// the experiment layer — an unknown node id, an epoch beyond the run, and
// two conflicting events on one link at one epoch.
func TestRunFaultSemanticErrors(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	cases := []struct {
		name                 string
		kill, degrade, sever string
		wantErr              string
	}{
		{name: "unknown node", kill: "99@1", wantErr: "unknown cluster node"},
		{name: "epoch beyond run", kill: "4@50", wantErr: "beyond the run"},
		{name: "degrade factor out of range", degrade: "1:0:1.5@1", wantErr: "outside (0,1)"},
		{name: "unknown fabric level", sever: "9:0@1", wantErr: "fabric level"},
		{name: "conflicting events", degrade: "1:0:0.5@1", sever: "1:0@1", wantErr: "conflicting"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events, err := parseFaultEvents(tc.kill, tc.degrade, tc.sever)
			if err != nil {
				t.Fatalf("flag layer rejected %q/%q/%q: %v", tc.kill, tc.degrade, tc.sever, err)
			}
			var buf bytes.Buffer
			err = run(&buf, cfg, experiment.Overrides{FaultEvents: events}, "fault", false)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run: got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunFaultSeverPartition drives a sever that partitions the platform:
// rack 0's uplink goes at epoch 2, so every transfer across it prices +Inf
// and no arm's run finishes. Text mode renders each row as "unbounded" with
// no speedup; -json still writes the whole document, carrying the figures as
// "+Inf" strings, and then fails through the violated ordering verdicts.
func TestRunFaultSeverPartition(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	events, err := parseFaultEvents("", "", "1:0@2")
	if err != nil {
		t.Fatal(err)
	}
	o := experiment.Overrides{FaultEvents: events}
	var text bytes.Buffer
	if err := run(&text, cfg, o, "fault", false); err != nil {
		t.Fatalf("text mode: %v", err)
	}
	rows := strings.Split(strings.TrimSpace(text.String()), "\n")[1:]
	if len(rows) != 4 {
		t.Fatalf("%d rows, want the 4 fault arms:\n%s", len(rows), text.String())
	}
	for _, row := range rows {
		if !strings.Contains(row, " unbounded  x-     faults=1 ") {
			t.Errorf("partitioned row %q does not render as unbounded with no speedup", row)
		}
	}

	var buf bytes.Buffer
	err = run(&buf, cfg, o, "fault", true)
	if err == nil || !strings.Contains(err.Error(), "ordering violated") {
		t.Fatalf("run -json: got %v, want the ordering violation", err)
	}
	var doc struct {
		Ablations []struct {
			Rows      []struct{ Seconds, Cycles any }
			Orderings []benchOrdering
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.Ablations) != 1 || len(doc.Ablations[0].Rows) != 4 {
		t.Fatalf("report misses the fault rows:\n%s", buf.String())
	}
	for _, r := range doc.Ablations[0].Rows {
		if r.Seconds != "+Inf" || r.Cycles != "+Inf" {
			t.Errorf("row figures %v/%v, want \"+Inf\"/\"+Inf\"", r.Seconds, r.Cycles)
		}
	}
	for _, v := range doc.Ablations[0].Orderings {
		if v.OK {
			t.Errorf("ordering %q holds between unbounded rows", v.Relation)
		}
	}
}

// TestRunHumanReport pins the default rendering path.
func TestRunHumanReport(t *testing.T) {
	cfg := experiment.Config{Rows: 1024, Cols: 1024, Iters: 4, Cores: 16, Seed: 42}
	var buf bytes.Buffer
	if err := run(&buf, cfg, experiment.Overrides{}, "shift", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "A12") || !strings.Contains(out, "shift/adaptive-fabric") {
		t.Errorf("human report misses the A12 rows:\n%s", out)
	}
}

// TestBuildSchedOverrides drives the -sched-* flag validation: malformed
// values must fail at the flag layer with a message naming the flag, and
// well-formed values must land in the override set exactly.
func TestBuildSchedOverrides(t *testing.T) {
	cases := []struct {
		name        string
		jobs        int
		churn       float64
		constraints float64
		fit, queue  string
		wantFit     sched.Fit
		wantQueue   sched.QueuePolicy
		wantErr     string
	}{
		{name: "all defaults", wantFit: sched.BestFit, wantQueue: sched.QueueWait},
		{name: "explicit knobs", jobs: 20, churn: 8, constraints: 0.5,
			fit: "worst", queue: "reject", wantFit: sched.WorstFit, wantQueue: sched.QueueReject},
		{name: "best fit by name", fit: "best", wantFit: sched.BestFit, wantQueue: sched.QueueWait},
		{name: "negative jobs", jobs: -1, wantErr: "-sched-jobs"},
		{name: "negative churn", churn: -0.5, wantErr: "-sched-churn"},
		{name: "constraints above one", constraints: 1.5, wantErr: "-sched-constraints"},
		{name: "unknown fit", fit: "snuggest", wantErr: "-sched-fit"},
		{name: "unknown queue", queue: "drop", wantErr: "-sched-queue"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o experiment.Overrides
			err := buildSchedOverrides(&o, tc.jobs, tc.churn, tc.constraints, tc.fit, tc.queue)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if o.SchedJobs != tc.jobs || o.SchedChurn != tc.churn || o.SchedConstraints != tc.constraints {
				t.Errorf("overrides %+v, want jobs=%d churn=%v constraints=%v",
					o, tc.jobs, tc.churn, tc.constraints)
			}
			if o.SchedFit != tc.wantFit || o.SchedQueue != tc.wantQueue {
				t.Errorf("fit/queue = %v/%v, want %v/%v", o.SchedFit, o.SchedQueue, tc.wantFit, tc.wantQueue)
			}
		})
	}
}

// TestBuildSched2Overrides drives the -sched2-* flag validation the same
// way: out-of-range values name the flag, valid values land verbatim.
func TestBuildSched2Overrides(t *testing.T) {
	cases := []struct {
		name       string
		priorities int
		threshold  float64
		wantErr    string
	}{
		{name: "all defaults"},
		{name: "explicit knobs", priorities: 5, threshold: 0.4},
		{name: "negative priorities", priorities: -1, wantErr: "-sched2-priorities"},
		{name: "priorities above hundred", priorities: 101, wantErr: "-sched2-priorities"},
		{name: "threshold above one", threshold: 1.5, wantErr: "-sched2-defrag-threshold"},
		{name: "negative threshold", threshold: -0.1, wantErr: "-sched2-defrag-threshold"},
		{name: "NaN threshold", threshold: math.NaN(), wantErr: "-sched2-defrag-threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var o experiment.Overrides
			err := buildSched2Overrides(&o, tc.priorities, tc.threshold)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if o.Sched2Priorities != tc.priorities || o.Sched2DefragThreshold != tc.threshold {
				t.Errorf("overrides %+v, want priorities=%d threshold=%v", o, tc.priorities, tc.threshold)
			}
		})
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
	if err := run(&buf, experiment.Reduced, experiment.Overrides{}, "all", false); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("ablate -exp all drifted from testdata/all.golden:\n%s", firstDiff(string(want), got))
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
			if err := run(&buf, cfg, experiment.Overrides{}, exp, true); err != nil {
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
		if err := run(&buf, experiment.Reduced, experiment.Overrides{}, "rack,hetero,sched", true); err != nil {
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
