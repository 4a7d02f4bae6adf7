package experiment

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/omp"
	"repro/internal/placement"
)

// AblationRow is one configuration of an ablation study.
type AblationRow struct {
	Name    string
	Seconds float64
	Detail  string
}

// FormatAblation renders ablation rows with speedups relative to the first
// row. A row whose run never finishes — a severed fabric that partitions the
// platform prices its transfers +Inf — shows "unbounded" for its seconds, and
// a speedup that is not a finite number shows "-".
func FormatAblation(title string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	base := 0.0
	if len(rows) > 0 {
		base = rows[0].Seconds
	}
	finite := func(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }
	for _, r := range rows {
		ratio := safeRatio(r.Seconds, base)
		secs, speed := fmt.Sprintf("%9.2fs", r.Seconds), fmt.Sprintf("%-5.2f", ratio)
		if !finite(r.Seconds) {
			secs = fmt.Sprintf("%10s", "unbounded")
		}
		if !finite(ratio) {
			speed = "-    "
		}
		fmt.Fprintf(&b, "  %-22s %s  x%s %s\n", r.Name, secs, speed, r.Detail)
	}
	return b.String()
}

// lk23Sweep runs a paper ablation's arm table through sweep, one row per arm
// named as the arm; detail renders an arm's Detail column.
func lk23Sweep(study string, arms []arm[lk23Arm], detail func(lk23Arm, Result) string) ([]AblationRow, error) {
	return sweep(study, "", arms, lk23Arm.run, func(a arm[lk23Arm], r Result) AblationRow {
		return AblationRow{Seconds: r.Seconds, Detail: detail(a.policy, r)}
	})
}

// bound is the ORWL-bind arm of cfg placed with pol.
func bound(cfg Config, pol placement.Policy) lk23Arm {
	cfg.Policy = pol
	return lk23Arm{impl: ORWLBind, cfg: cfg}
}

// AblationPolicies (A1) compares the placement policies on the full LK23
// configuration: the paper's TreeMatch against compact, scatter, random and
// the unbound baseline.
func AblationPolicies(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	return lk23Sweep("policies", []arm[lk23Arm]{
		{"treematch", bound(cfg, placement.TreeMatch{})},
		{"compact", bound(cfg, placement.Compact{})},
		{"scatter", bound(cfg, placement.Scatter{})},
		{"random", bound(cfg, placement.Random{Seed: cfg.Seed + 1})},
		{"nobind", lk23Arm{impl: ORWLNoBind, cfg: cfg}},
	}, func(lk23Arm, Result) string { return "" })
}

// AblationControlThreads (A2) isolates the paper's control-thread
// adaptation: the same LK23 program with TreeMatch binding under the
// strategies of Algorithm 1 — hyperthread pairing (on an SMT machine),
// spare cores (few enough blocks that cores are spare), and unmapped
// control threads. For each scenario the "unmapped" variant differs only in
// leaving the control threads to the OS, so the difference is purely their
// placement.
//
// Control-thread placement is a per-lock-transition effect, invisible under
// a workload whose iterations stream tens of megabytes per block; the
// ablation therefore shrinks the matrix (by 16× per side, floored at
// 1024²) so synchronization is a meaningful share of each iteration —
// matching the regimes where the paper's adaptation pays.
func AblationControlThreads(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	cfg.Rows, cfg.Cols = max(cfg.Rows/16, 1024), max(cfg.Cols/16, 1024)
	// Scenario 1: an SMT machine, whose control threads ride the
	// co-hyperthreads. Scenario 2: no SMT and few enough blocks that the 9
	// operations per block leave cores spare (tasks = 9·blocks < cores), so
	// the spare cores take the control threads.
	smt, spare := cfg, cfg
	smt.SMT = true
	spare.BlocksOverride = max(cfg.Cores/16, 1)
	return lk23Sweep("control", []arm[lk23Arm]{
		{"smt/hyperthread", bound(smt, placement.TreeMatch{})},
		{"smt/unmapped", bound(smt, unmappedControls{})},
		{"spare/mapped", bound(spare, placement.TreeMatch{})},
		{"spare/unmapped", bound(spare, unmappedControls{})},
	}, func(_ lk23Arm, r Result) string { return r.Strategy })
}

// unmappedControls is TreeMatch with every control thread left to the OS.
type unmappedControls struct{ placement.TreeMatch }

// Assign implements placement.Policy.
func (p unmappedControls) Assign(mach *numasim.Machine, m *comm.Matrix) (*placement.Assignment, error) {
	a, err := p.TreeMatch.Assign(mach, m)
	if err == nil {
		for i := range a.ControlPU {
			a.ControlPU[i] = -1
		}
	}
	return a, err
}

// AblationOversubscription (A3) exercises the paper's oversubscription
// adaptation: the same machine with 1×, 2× and 4× as many blocks as cores.
// TreeMatch adds a virtual tree level and keeps each block's operations
// together; the run must stay correct and the overhead bounded.
func AblationOversubscription(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var arms []arm[lk23Arm]
	for _, factor := range []int{1, 2, 4} {
		c := cfg
		c.BlocksOverride = cfg.Cores * factor
		arms = append(arms, arm[lk23Arm]{fmt.Sprintf("blocks=%dx cores", factor), lk23Arm{impl: ORWLBind, cfg: c}})
	}
	return lk23Sweep("oversub", arms, func(_ lk23Arm, r Result) string {
		return fmt.Sprintf("%d tasks on %d cores", r.Tasks, r.Cores)
	})
}

// AblationGranularity (A4) sweeps the block grid at fixed machine size:
// fewer, larger blocks leave cores idle; more, smaller blocks raise the
// protocol and halo overhead.
func AblationGranularity(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var arms []arm[lk23Arm]
	for _, blocks := range []int{cfg.Cores / 4, cfg.Cores / 2, cfg.Cores, cfg.Cores * 2} {
		if blocks < 1 {
			continue
		}
		c := cfg
		c.BlocksOverride = blocks
		arms = append(arms, arm[lk23Arm]{fmt.Sprintf("%d blocks", blocks), lk23Arm{impl: ORWLBind, cfg: c}})
	}
	return lk23Sweep("granularity", arms, func(_ lk23Arm, r Result) string {
		bx, by := BlockGrid(r.Blocks)
		return fmt.Sprintf("grid %dx%d", bx, by)
	})
}

// topologyCases are the machine shapes of the topology ablation: three
// 192-core machines of increasing hierarchy depth.
var topologyCases = []struct{ name, spec string }{
	{"flat-24x8", "pack:24 l3:1 core:8 pu:1"},
	{"numa-4x6x8", "pack:4 numa:6 l3:1 core:8 pu:1"},
	{"deep-2x2x3x16", "group:2 pack:2 numa:3 l3:2 core:8 pu:1"},
}

// AblationTopology (A5) runs Bind vs NoBind on machines of different
// hierarchy depth but identical core count, showing that the placement
// module adapts to the tree shape it is given.
func AblationTopology(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var arms []arm[lk23Arm]
	for _, tc := range topologyCases {
		for _, impl := range []Impl{ORWLBind, ORWLNoBind} {
			arms = append(arms, arm[lk23Arm]{fmt.Sprintf("%s/%s", tc.name, impl), lk23Arm{impl: impl, cfg: cfg, spec: tc.spec}})
		}
	}
	return lk23Sweep("topology", arms, func(_ lk23Arm, r Result) string { return r.Strategy })
}

// AblationDistribution (A6) isolates the distribution requirement of the
// paper ("we cluster threads that share data, and at the same time,
// distribute threads over NUMA nodes"): TreeMatch with and without the
// tree-restriction step, on an SMT machine (so control threads ride
// hyperthreads and do not consume the spare cores) with few enough blocks
// that there is room to spread. The decisive metric is structural — how
// many NUMA nodes carry work — because the simulator's uniform contention
// model deliberately averages per-node pressure; the Detail field records
// it alongside the simulated time.
func AblationDistribution(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	cfg.SMT, cfg.BlocksOverride = true, max(cfg.Cores/16, 1)
	arms := []arm[placement.Policy]{
		{"distribute", placement.TreeMatch{}},
		{"cluster-only", placement.TreeMatch{NoDistribute: true}},
	}
	return sweep("distribute", "", arms, func(pol placement.Policy) (AblationRow, error) {
		mach, err := Machine(cfg)
		if err != nil {
			return AblationRow{}, err
		}
		res, run, err := runLK23(mach, cfg, ORWLBind, pol, nil)
		if err != nil {
			return AblationRow{}, err
		}
		nodes := map[int]bool{}
		for _, pu := range run.a.TaskPU {
			if pu >= 0 {
				nodes[mach.NodeOfPU(pu)] = true
			}
		}
		return AblationRow{Seconds: res.Seconds, Detail: fmt.Sprintf("%d NUMA nodes carry tasks", len(nodes))}, nil
	}, func(_ arm[placement.Policy], r AblationRow) AblationRow { return r })
}

// AblationOMPSchedule (A7) sweeps the loop-scheduling policy of the OpenMP
// baseline against the bound ORWL reference. The point the paper makes
// implicitly — that the baseline's problem is affinity, not load balancing
// — shows here: no schedule rescues OpenMP, because the cost is where the
// pages are, not how the rows are dealt out.
func AblationOMPSchedule(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var arms []arm[lk23Arm]
	for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
		arms = append(arms, arm[lk23Arm]{"omp/" + sched.String(), lk23Arm{impl: OpenMP, cfg: cfg, sched: sched}})
	}
	arms = append(arms, arm[lk23Arm]{"orwl-bind", lk23Arm{impl: ORWLBind, cfg: cfg}})
	return lk23Sweep("ompsched", arms, func(a lk23Arm, _ Result) string {
		if a.impl == ORWLBind {
			return "reference"
		}
		return ""
	})
}
