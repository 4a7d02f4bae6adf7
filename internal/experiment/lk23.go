// Package experiment reproduces the paper's evaluation: the Livermore
// Kernel 23 benchmark (Figure 1) comparing ORWL with topology-aware binding
// against ORWL without binding and against an OpenMP-style baseline, plus
// ablation studies for each design choice (placement policy, control-thread
// strategy, oversubscription, block granularity, topology shape).
//
// Processing times are simulated seconds from the numasim virtual-time
// engine (see docs/ARCHITECTURE.md, "Determinism"): deterministic,
// independent of the real Go scheduler, with constants calibrated to a
// 2016-era 24-socket SMP.
package experiment

import (
	"fmt"
	"math"

	"repro/internal/kernels"
	"repro/internal/numasim"
	"repro/internal/omp"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// Impl names one of the three implementations of the paper's Figure 1.
type Impl string

// The three implementations compared in Figure 1.
const (
	// ORWLBind is ORWL with the paper's topology-aware placement module.
	ORWLBind Impl = "orwl-bind"
	// ORWLNoBind is ORWL with all threads left to the OS scheduler.
	ORWLNoBind Impl = "orwl-nobind"
	// OpenMP is the affinity-blind fork-join baseline.
	OpenMP Impl = "openmp"
)

// Config parameterizes one LK23 run. The zero value is filled with the
// paper's setup: a 16384×16384 matrix of doubles, 100 iterations, sockets
// of 8 cores.
type Config struct {
	// Rows, Cols is the matrix shape (paper: 16384×16384).
	Rows, Cols int
	// Iters is the number of iterations (paper: 100).
	Iters int
	// Cores is the number of cores used; the simulated machine has
	// Cores/CoresPerSocket sockets. 192 is the paper's full machine.
	Cores int
	// CoresPerSocket shapes the sub-machine (paper: 8).
	CoresPerSocket int
	// SMT adds a second hardware thread per core (off in the paper's
	// machine description; used by the control-thread ablation).
	SMT bool
	// Seed drives the simulated OS scheduler for unbound threads.
	Seed int64
	// OMPSerialFraction is the fraction of the OpenMP working set whose
	// pages end up on node 0 (the master's node: serially-touched head of
	// the allocation). The remainder is spread by the parallel first
	// touches. Default 0.12.
	OMPSerialFraction float64
	// BlocksOverride forces the ORWL block count (default: Cores, one
	// block per core, the paper's configuration at 192).
	BlocksOverride int
	// Policy overrides the placement policy for ORWLBind runs (default
	// placement.TreeMatch{}).
	Policy placement.Policy
}

func (c Config) withDefaults() Config {
	if c.Rows == 0 {
		c.Rows = 16384
	}
	if c.Cols == 0 {
		c.Cols = 16384
	}
	if c.Iters == 0 {
		c.Iters = 100
	}
	if c.Cores == 0 {
		c.Cores = 192
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 8
	}
	if c.OMPSerialFraction == 0 {
		c.OMPSerialFraction = 0.12
	}
	return c
}

// Validate rejects configurations the pipeline cannot run: non-positive
// core, socket or iteration counts, and grids without an interior. Zero
// values are legal (they select the paper defaults); explicit negative or
// too-small values are not. Commands call this at the flag boundary so a
// bad invocation dies with one clean line instead of a panic.
func (c Config) Validate() error {
	d := c.withDefaults()
	switch {
	case d.Rows < 3 || d.Cols < 3:
		return fmt.Errorf("experiment: grid %dx%d too small (needs an interior of at least 3x3)", d.Rows, d.Cols)
	case d.Iters < 1:
		return fmt.Errorf("experiment: iteration count %d must be positive", d.Iters)
	case d.Cores < 1:
		return fmt.Errorf("experiment: core count %d must be positive", d.Cores)
	case d.CoresPerSocket < 1:
		return fmt.Errorf("experiment: cores per socket %d must be positive", d.CoresPerSocket)
	case d.BlocksOverride < 0:
		return fmt.Errorf("experiment: block count %d must not be negative", d.BlocksOverride)
	case d.OMPSerialFraction < 0 || d.OMPSerialFraction > 1:
		return fmt.Errorf("experiment: OMP serial fraction %v outside [0,1]", d.OMPSerialFraction)
	}
	return nil
}

// Result reports one LK23 run.
type Result struct {
	Impl    Impl
	Cores   int
	Blocks  int
	Tasks   int
	Seconds float64
	// Policy and Strategy describe the placement (ORWL runs).
	Policy   string
	Strategy string
	// Migrations counts simulated OS migrations across all threads.
	Migrations int
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%-12s cores=%-3d blocks=%-3d time=%8.2fs policy=%s",
		r.Impl, r.Cores, r.Blocks, r.Seconds, r.Policy)
}

// Machine builds the simulated sub-machine for a configuration: one socket
// per CoresPerSocket cores, each socket with a shared L3 and its own NUMA
// node, matching the paper's SMP.
func Machine(cfg Config) (*numasim.Machine, error) {
	cfg = cfg.withDefaults()
	sockets := cfg.Cores / cfg.CoresPerSocket
	perSocket := cfg.CoresPerSocket
	if sockets == 0 {
		sockets = 1
		perSocket = cfg.Cores
	} else if sockets*cfg.CoresPerSocket != cfg.Cores {
		return nil, fmt.Errorf("experiment: %d cores not divisible into sockets of %d",
			cfg.Cores, cfg.CoresPerSocket)
	}
	pus := 1
	if cfg.SMT {
		pus = 2
	}
	spec := fmt.Sprintf("pack:%d l3:1 core:%d pu:%d", sockets, perSocket, pus)
	return machineFromSpec(spec)
}

// machineFromSpec builds a simulated machine from a topology spec string.
func machineFromSpec(spec string) (*numasim.Machine, error) {
	topo, err := topology.FromSpec(spec)
	if err != nil {
		return nil, err
	}
	return numasim.New(topo, numasim.Config{})
}

// BlockGrid returns the most square bx×by factorization of n (bx >= by),
// e.g. 192 → 16×12, the paper's block grid at full scale.
func BlockGrid(n int) (bx, by int) {
	for d := int(math.Sqrt(float64(n))); d >= 1; d-- {
		if n%d == 0 {
			return n / d, d
		}
	}
	return n, 1
}

// runLK23 is the tail every cost-only ORWL LK23 arm shares: the block
// program (paper §III decomposition; BlocksOverride blocks, default one per
// core) built on a runtime over the machine, placed by place, the memory
// contention of the main operations declared from the placement, and the
// run. It also returns the placement place computed, for structural
// inspection by the ablations.
func runLK23(mach *numasim.Machine, cfg Config, impl Impl, place func(*orwl.Runtime) (*placement.Assignment, error)) (Result, *placement.Assignment, error) {
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: cfg.Seed})
	blocks := cfg.BlocksOverride
	if blocks == 0 {
		blocks = mach.Topology().NumCores()
	}
	bx, by := BlockGrid(blocks)
	prog, err := kernels.Build(rt, cfg.Rows, cfg.Cols, kernels.BuildOptions{
		BX: bx, BY: by, Iters: cfg.Iters, Costs: kernels.LK23Costs,
	})
	if err != nil {
		return Result{}, nil, err
	}
	a, err := place(rt)
	if err != nil {
		return Result{}, nil, err
	}
	// The heavy memory streams are the main operations: one per block,
	// sweeping the block's working set each iteration. Frontier operations
	// only move strips.
	heavy := make([]bool, len(prog.Tasks))
	for i := range heavy {
		heavy[i] = i%9 == 0
	}
	placement.SetContention(mach, a, heavy)
	if err := rt.Run(); err != nil {
		return Result{}, nil, err
	}
	res := Result{
		Impl:     impl,
		Cores:    mach.Topology().NumCores(),
		Blocks:   blocks,
		Tasks:    len(prog.Tasks),
		Seconds:  rt.MakespanSeconds(),
		Policy:   a.Policy,
		Strategy: a.Strategy.String(),
	}
	for _, t := range prog.Tasks {
		res.Migrations += t.Proc().Stats().Migrations
	}
	return res, a, nil
}

// oneShot places with the implementation's policy: cfg.Policy (default
// TreeMatch) for ORWLBind, all threads left to the OS otherwise.
func oneShot(impl Impl, cfg Config) func(*orwl.Runtime) (*placement.Assignment, error) {
	var pol placement.Policy = placement.NoBind{}
	if impl == ORWLBind {
		if pol = cfg.Policy; pol == nil {
			pol = placement.TreeMatch{}
		}
	}
	return func(rt *orwl.Runtime) (*placement.Assignment, error) { return placement.Place(rt, pol) }
}

// Run executes one LK23 configuration with the given implementation and
// returns its simulated processing time.
func Run(impl Impl, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cfg = cfg.withDefaults()
	switch impl {
	case ORWLBind, ORWLNoBind:
		return runORWL(impl, cfg)
	case OpenMP:
		return runOMP(cfg)
	default:
		return Result{}, fmt.Errorf("experiment: unknown implementation %q", impl)
	}
}

// runORWL executes the cost-only ORWL program under the configured
// placement.
func runORWL(impl Impl, cfg Config) (Result, error) {
	res, _, err := runORWLWithAssignment(impl, cfg)
	return res, err
}

// runORWLWithAssignment is runORWL, additionally returning the computed
// placement for structural inspection by the ablations.
func runORWLWithAssignment(impl Impl, cfg Config) (Result, *placement.Assignment, error) {
	mach, err := Machine(cfg)
	if err != nil {
		return Result{}, nil, err
	}
	return runLK23(mach, cfg, impl, oneShot(impl, cfg))
}

// runOMP executes the cost-only OpenMP baseline: Cores unbound threads
// sweeping the matrix row-wise with an implicit barrier per iteration.
// Memory placement models a realistic affinity-blind allocation: a
// serially-touched head of the arrays on node 0 plus a body spread across
// the nodes by the parallel first touches.
func runOMP(cfg Config) (Result, error) {
	return runOMPSchedule(cfg, omp.Static)
}

// runOMPSchedule is runOMP under an explicit loop schedule (static is the
// figure's baseline; the A7 ablation sweeps the others).
func runOMPSchedule(cfg Config, sched omp.Schedule) (Result, error) {
	mach, err := Machine(cfg)
	if err != nil {
		return Result{}, err
	}
	team, err := omp.NewTeam(mach, cfg.Cores, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	nodes := mach.Topology().NumNUMANodes()
	totalBytes := float64(cfg.Rows) * float64(cfg.Cols) * kernels.LK23Costs.BytesPerCell
	f := cfg.OMPSerialFraction
	head, err := mach.AllocOn("lk23-head", int64(totalBytes*f), 0)
	if err != nil {
		return Result{}, err
	}
	body := mach.AllocInterleaved("lk23-body", int64(totalBytes*(1-f)))

	// Static contention: every thread streams the head region on node 0;
	// the interleaved body spreads the remaining streams evenly; threads
	// roam, so most body accesses cross the fabric.
	mach.SetAccessors(0, cfg.Cores)
	for n := 1; n < nodes; n++ {
		mach.SetAccessors(n, (cfg.Cores+nodes-1)/nodes)
	}
	if nodes > 1 {
		mach.SetRemoteStreams(cfg.Cores * (nodes - 1) / nodes)
	}

	costs := kernels.LK23Costs
	chunk := 0
	if sched != omp.Static {
		// A dynamic chunk of ~1/8 of a thread's static share keeps the
		// dispatch overhead negligible while allowing rebalancing.
		chunk = (cfg.Rows - 2) / (8 * cfg.Cores)
		if chunk < 1 {
			chunk = 1
		}
	}
	for it := 0; it < cfg.Iters; it++ {
		team.ParallelFor(1, cfg.Rows-1, chunk, sched, func(lo, hi, tid int) {
			p := team.Proc(tid)
			cells := float64((hi - lo) * cfg.Cols)
			p.Compute(costs.FlopsPerCell * cells)
			p.MemRead(head, f*costs.BytesPerCell*cells)
			p.MemRead(body, (1-f)*costs.BytesPerCell*cells)
		})
	}
	res := Result{
		Impl:    OpenMP,
		Cores:   cfg.Cores,
		Blocks:  0,
		Tasks:   cfg.Cores,
		Seconds: team.MakespanSeconds(),
		Policy:  "none",
	}
	for tid := 0; tid < team.Size(); tid++ {
		res.Migrations += team.Proc(tid).Stats().Migrations
	}
	return res, nil
}
