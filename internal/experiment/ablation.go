package experiment

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/omp"
	"repro/internal/orwl"
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

// AblationPolicies (A1) compares the placement policies on the full LK23
// configuration: the paper's TreeMatch against compact, scatter, random and
// the unbound baseline.
func AblationPolicies(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	policies := []placement.Policy{
		placement.TreeMatch{},
		placement.Compact{},
		placement.Scatter{},
		placement.Random{Seed: cfg.Seed + 1},
		placement.NoBind{},
	}
	var rows []AblationRow
	for _, pol := range policies {
		c := cfg
		impl := ORWLBind
		if pol.Name() == "nobind" {
			impl = ORWLNoBind
		} else {
			c.Policy = pol
		}
		res, err := Run(impl, c)
		if err != nil {
			return nil, fmt.Errorf("ablation policies, %s: %w", pol.Name(), err)
		}
		rows = append(rows, AblationRow{Name: pol.Name(), Seconds: res.Seconds})
	}
	return rows, nil
}

// AblationControlThreads (A2) isolates the paper's control-thread
// adaptation: the same LK23 program with TreeMatch binding under the
// strategies of Algorithm 1 — hyperthread pairing (on an SMT machine),
// spare cores (few enough blocks that cores are spare), and unmapped
// control threads. For each scenario the "unmapped" variant rebinds only
// the control threads, so the difference is purely their placement.
//
// Control-thread placement is a per-lock-transition effect, invisible under
// a workload whose iterations stream tens of megabytes per block; the
// ablation therefore shrinks the matrix (by 16× per side, floored at
// 1024²) so synchronization is a meaningful share of each iteration —
// matching the regimes where the paper's adaptation pays.
func AblationControlThreads(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	cfg.Rows = cfg.Rows / 16
	if cfg.Rows < 1024 {
		cfg.Rows = 1024
	}
	cfg.Cols = cfg.Cols / 16
	if cfg.Cols < 1024 {
		cfg.Cols = 1024
	}
	var rows []AblationRow

	// Scenario 1: SMT machine, control threads on co-hyperthreads vs
	// released to the OS.
	for _, unbindCtl := range []bool{false, true} {
		smt := cfg
		smt.SMT = true
		res, err := runORWLControlVariant(smt, unbindCtl)
		if err != nil {
			return nil, err
		}
		name := "smt/hyperthread"
		if unbindCtl {
			name = "smt/unmapped"
		}
		rows = append(rows, AblationRow{Name: name, Seconds: res.Seconds, Detail: res.Strategy})
	}

	// Scenario 2: no SMT and few enough blocks that the 9 operations per
	// block leave cores spare (tasks = 9·blocks < cores): the spare cores
	// take the control threads vs releasing them.
	for _, unbindCtl := range []bool{false, true} {
		spare := cfg
		spare.BlocksOverride = cfg.Cores / 16
		if spare.BlocksOverride == 0 {
			spare.BlocksOverride = 1
		}
		res, err := runORWLControlVariant(spare, unbindCtl)
		if err != nil {
			return nil, err
		}
		name := "spare/mapped"
		if unbindCtl {
			name = "spare/unmapped"
		}
		rows = append(rows, AblationRow{Name: name, Seconds: res.Seconds, Detail: res.Strategy})
	}
	return rows, nil
}

// runORWLControlVariant runs an ORWL-bind LK23 and optionally strips the
// control-thread bindings after placement.
func runORWLControlVariant(cfg Config, unbindCtl bool) (Result, error) {
	mach, err := Machine(cfg)
	if err != nil {
		return Result{}, err
	}
	res, _, err := runLK23(mach, cfg, ORWLBind, func(rt *orwl.Runtime) (*placement.Assignment, error) {
		a, err := placement.Place(rt, placement.TreeMatch{})
		if err != nil || !unbindCtl {
			return a, err
		}
		for _, t := range rt.Tasks() {
			if err := rt.BindControl(t, -1); err != nil {
				return nil, err
			}
		}
		return a, nil
	})
	return res, err
}

// AblationOversubscription (A3) exercises the paper's oversubscription
// adaptation: the same machine with 1×, 2× and 4× as many blocks as cores.
// TreeMatch adds a virtual tree level and keeps each block's operations
// together; the run must stay correct and the overhead bounded.
func AblationOversubscription(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var rows []AblationRow
	for _, factor := range []int{1, 2, 4} {
		c := cfg
		c.BlocksOverride = cfg.Cores * factor
		res, err := Run(ORWLBind, c)
		if err != nil {
			return nil, fmt.Errorf("ablation oversubscription x%d: %w", factor, err)
		}
		rows = append(rows, AblationRow{
			Name:    fmt.Sprintf("blocks=%dx cores", factor),
			Seconds: res.Seconds,
			Detail:  fmt.Sprintf("%d tasks on %d cores", res.Tasks, res.Cores),
		})
	}
	return rows, nil
}

// AblationGranularity (A4) sweeps the block grid at fixed machine size:
// fewer, larger blocks leave cores idle; more, smaller blocks raise the
// protocol and halo overhead.
func AblationGranularity(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var rows []AblationRow
	for _, blocks := range []int{cfg.Cores / 4, cfg.Cores / 2, cfg.Cores, cfg.Cores * 2} {
		if blocks < 1 {
			continue
		}
		c := cfg
		c.BlocksOverride = blocks
		res, err := Run(ORWLBind, c)
		if err != nil {
			return nil, fmt.Errorf("ablation granularity %d blocks: %w", blocks, err)
		}
		bx, by := BlockGrid(blocks)
		rows = append(rows, AblationRow{
			Name:    fmt.Sprintf("%d blocks", blocks),
			Seconds: res.Seconds,
			Detail:  fmt.Sprintf("grid %dx%d", bx, by),
		})
	}
	return rows, nil
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
	var rows []AblationRow
	for _, tc := range topologyCases {
		for _, impl := range []Impl{ORWLBind, ORWLNoBind} {
			res, err := runORWLOnSpec(impl, cfg, tc.spec)
			if err != nil {
				return nil, fmt.Errorf("ablation topology %s, %s: %w", tc.name, impl, err)
			}
			rows = append(rows, AblationRow{
				Name:    fmt.Sprintf("%s/%s", tc.name, impl),
				Seconds: res.Seconds,
				Detail:  res.Strategy,
			})
		}
	}
	return rows, nil
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
	cfg.SMT = true
	cfg.BlocksOverride = cfg.Cores / 16
	if cfg.BlocksOverride < 1 {
		cfg.BlocksOverride = 1
	}
	var rows []AblationRow
	for _, noDist := range []bool{false, true} {
		c := cfg
		c.Policy = placement.TreeMatch{NoDistribute: noDist}
		res, a, err := runORWLWithAssignment(ORWLBind, c)
		if err != nil {
			return nil, fmt.Errorf("ablation distribution: %w", err)
		}
		mach, err := Machine(c)
		if err != nil {
			return nil, err
		}
		nodes := map[int]bool{}
		for _, pu := range a.TaskPU {
			if pu >= 0 {
				nodes[mach.NodeOfPU(pu)] = true
			}
		}
		name := "distribute"
		if noDist {
			name = "cluster-only"
		}
		rows = append(rows, AblationRow{
			Name:    name,
			Seconds: res.Seconds,
			Detail:  fmt.Sprintf("%d NUMA nodes carry tasks", len(nodes)),
		})
	}
	return rows, nil
}

// AblationOMPSchedule (A7) sweeps the loop-scheduling policy of the OpenMP
// baseline. The point the paper makes implicitly — that the baseline's
// problem is affinity, not load balancing — shows here: no schedule
// rescues OpenMP, because the cost is where the pages are, not how the
// rows are dealt out.
func AblationOMPSchedule(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	var rows []AblationRow
	for _, sched := range []omp.Schedule{omp.Static, omp.Dynamic, omp.Guided} {
		res, err := runOMPSchedule(cfg, sched)
		if err != nil {
			return nil, fmt.Errorf("ablation omp schedule %v: %w", sched, err)
		}
		rows = append(rows, AblationRow{Name: "omp/" + sched.String(), Seconds: res.Seconds})
	}
	bind, err := Run(ORWLBind, cfg)
	if err != nil {
		return nil, err
	}
	rows = append(rows, AblationRow{Name: "orwl-bind", Seconds: bind.Seconds, Detail: "reference"})
	return rows, nil
}

// runORWLOnSpec is runORWL with an explicit topology spec.
func runORWLOnSpec(impl Impl, cfg Config, spec string) (Result, error) {
	mach, err := machineFromSpec(spec)
	if err != nil {
		return Result{}, err
	}
	res, _, err := runLK23(mach, cfg, impl, oneShot(impl, cfg))
	return res, err
}
