package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/numasim"
	"repro/internal/sched"
	"repro/internal/topology"
)

func TestBuildOptionsValidation(t *testing.T) {
	cases := []struct {
		name                      string
		policy, fit, queue        string
		backfill, preempt, defrag bool
		defragThr                 float64
		want                      sched.Options
		wantErr                   string
	}{
		{name: "defaults", policy: "topo-aware", fit: "best", queue: "wait",
			want: sched.Options{Policy: sched.TopoAware, Fit: sched.BestFit, Queue: sched.QueueWait}},
		{name: "blind worst reject", policy: "topo-blind", fit: "worst", queue: "reject",
			want: sched.Options{Policy: sched.TopoBlind, Fit: sched.WorstFit, Queue: sched.QueueReject}},
		{name: "first fit", policy: "first-fit", fit: "best", queue: "wait",
			want: sched.Options{Policy: sched.FirstFit, Fit: sched.BestFit, Queue: sched.QueueWait}},
		{name: "phase-2 stack", policy: "topo-aware", fit: "best", queue: "wait",
			backfill: true, preempt: true, defrag: true, defragThr: 0.25,
			want: sched.Options{Policy: sched.TopoAware, Fit: sched.BestFit, Queue: sched.QueueWait,
				Backfill: true, Preempt: true, Defrag: true, DefragThreshold: 0.25}},
		{name: "unknown policy", policy: "round-robin", fit: "best", queue: "wait", wantErr: "-policy"},
		{name: "unknown fit", policy: "topo-aware", fit: "snuggest", queue: "wait", wantErr: "-fit"},
		{name: "unknown queue", policy: "topo-aware", fit: "best", queue: "drop", wantErr: "-queue"},
		{name: "threshold above one", policy: "topo-aware", fit: "best", queue: "wait",
			defragThr: 1.5, wantErr: "-defrag-threshold"},
		{name: "NaN threshold", policy: "topo-aware", fit: "best", queue: "wait",
			defragThr: math.NaN(), wantErr: "-defrag-threshold"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := buildOptions(tc.policy, tc.fit, tc.queue, tc.backfill, tc.preempt, tc.defrag, tc.defragThr)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if got.Policy != tc.want.Policy || got.Fit != tc.want.Fit || got.Queue != tc.want.Queue ||
				got.Backfill != tc.want.Backfill || got.Preempt != tc.want.Preempt ||
				got.Defrag != tc.want.Defrag || got.DefragThreshold != tc.want.DefragThreshold {
				t.Errorf("options %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestBuildStreamValidation(t *testing.T) {
	cases := []struct {
		name                string
		jobs                int
		seed                int64
		churn, constraints  float64
		preferred, required string
		priorities          int
		longFrac            float64
		wantErr             string
	}{
		{name: "defaults", jobs: 40, seed: 7, churn: 4, constraints: 0.3, preferred: "node", required: "rack"},
		{name: "unconstrained", jobs: 10, seed: 1, churn: 2},
		{name: "phase-2 mix", jobs: 40, seed: 7, churn: 12, constraints: 0.35,
			preferred: "node", required: "rack", priorities: 3, longFrac: 0.2},
		{name: "negative churn", jobs: 40, seed: 7, churn: -1, constraints: 0.3,
			preferred: "node", required: "rack", wantErr: "churn"},
		{name: "too many jobs", jobs: 1 << 21, seed: 7, churn: 4, constraints: 0.3,
			preferred: "node", required: "rack", wantErr: "jobs"},
		{name: "fraction above one", jobs: 40, seed: 7, churn: 4, constraints: 1.5,
			preferred: "node", required: "rack", wantErr: "fraction"},
		{name: "too many priority classes", jobs: 40, seed: 7, churn: 4,
			priorities: 101, wantErr: "priority classes"},
		{name: "long fraction above one", jobs: 40, seed: 7, churn: 4,
			longFrac: 1.5, wantErr: "long fraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := buildStream(tc.jobs, tc.seed, tc.churn, tc.constraints, tc.preferred, tc.required, tc.priorities, tc.longFrac)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunGeneratedStream pins the end-to-end generated path: the report must
// carry the policy banner, one line per admitted job and the aggregate
// metrics.
func TestRunGeneratedStream(t *testing.T) {
	stream := sched.StreamConfig{Jobs: 6, Seed: 7, Churn: 4,
		ConstraintFraction: 0.3, PreferredTier: "node", RequiredTier: "rack"}
	var buf bytes.Buffer
	err := run(&buf, "rack:2 node:2 pack:1 core:4 pu:1", "", stream,
		sched.Options{Policy: sched.TopoAware})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"policy topo-aware", "j005", "aggregate job time", "fragmentation"} {
		if !strings.Contains(out, want) {
			t.Errorf("report misses %q:\n%s", want, out)
		}
	}
}

// TestRunWorkloadFile replays a file through -workload, including a
// required-tier constraint and a comment line.
func TestRunWorkloadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.txt")
	content := "# two jobs\n" +
		"job etl arrive=0 work=1e6 tasks=4 pattern=stencil:2x2 vol=4096 required=rack preferred=node\n" +
		"job web arrive=100 work=2e6 tasks=2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := run(&buf, "rack:2 node:2 pack:1 core:4 pu:1", path, sched.StreamConfig{},
		sched.Options{Policy: sched.TopoAware})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "etl") || !strings.Contains(out, "web") {
		t.Errorf("report misses the replayed jobs:\n%s", out)
	}
	if !strings.Contains(out, "2 admitted") {
		t.Errorf("report misses the admission count:\n%s", out)
	}
}

// TestBackfillCliff keeps the backfill cliff closed in tier-1: 2000 jobs on a
// 1000-node platform under -backfill, where placing every queued job to test
// it against the head's window took 53 s (0.7 s without -backfill). The
// output is pinned to the bytes that exhaustive probing printed.
func TestBackfillCliff(t *testing.T) {
	stream, err := buildStream(2000, 7, 1000, 0.3, "node", "rack", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := buildOptions("topo-aware", "best", "wait", true, false, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run(&buf, "rack:25 node:40 pack:1 core:8", "", stream, opts); err != nil {
		t.Fatal(err)
	}
	const want = "6419c50b2b00b5510b193a78c21ebf672b195dae1542bbbd72770c8dc48e6069"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Fatalf("output SHA-256 %s, want %s", got, want)
	}
}

// TestRunErrors: each layer's failure surfaces as a clean error.
func TestRunErrors(t *testing.T) {
	stream := sched.StreamConfig{Jobs: 2}
	badFile := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(badFile, []byte("job x arrive=0 work=1 tasks=0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, platform, workload, wantErr string
	}{
		{"bad platform", "nonsense", "", "spec"},
		{"missing workload", "rack:2 node:2 pack:1 core:4 pu:1", filepath.Join(t.TempDir(), "nope.txt"), "no such file"},
		{"bad workload line", "rack:2 node:2 pack:1 core:4 pu:1", badFile, "tasks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			err := run(&buf, tc.platform, tc.workload, stream, sched.Options{})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestReproducesAblationSched runs the reduced A15 grid — both shapes,
// stream seeds 7 and 42, the three policies — through the command's own
// flag path at its default stream flags, and requires each policy's summed
// aggregate job time to equal the A15 row exactly.
func TestReproducesAblationSched(t *testing.T) {
	rows, err := experiment.AblationSched(experiment.SchedConfigFrom(experiment.Reduced))
	if err != nil || len(rows) != 3 {
		t.Fatalf("A15: %d rows, %v", len(rows), err)
	}
	for _, row := range rows {
		policy := strings.TrimPrefix(row.Name, "sched/")
		opts, err := buildOptions(policy, "best", "wait", false, false, false, 0)
		if err != nil {
			t.Fatal(err)
		}
		var agg float64
		for _, shape := range []string{"rack:2 node:4 pack:2 core:4 pu:1", "pod:2 rack:2 node:2 pack:2 core:4 pu:1"} {
			for _, seed := range []int64{7, 42} {
				stream, err := buildStream(40, seed, 4, 0.3, "node", "rack", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				jobs, err := loadJobs("", stream)
				if err != nil {
					t.Fatal(err)
				}
				plat, err := numasim.NewPlatform(shape, numasim.Config{})
				if err != nil {
					t.Fatal(err)
				}
				s, err := sched.New(plat.Machine(), opts)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := s.Run(jobs)
				if err != nil {
					t.Fatal(err)
				}
				agg += rep.AggregateCycles
			}
		}
		if got := agg / topology.DefaultAttrs().ClockHz; got != row.Seconds {
			t.Errorf("%s: the command's grid sums to %v s, A15 reports %v s", policy, got, row.Seconds)
		}
	}
}
