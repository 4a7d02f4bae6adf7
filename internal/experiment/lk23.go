// Package experiment reproduces the paper's evaluation: the Livermore
// Kernel 23 benchmark (Figure 1) comparing ORWL with topology-aware binding
// against ORWL without binding and against an OpenMP-style baseline, plus the
// sixteen studies of the registry (registry.go): the paper ablations A1–A8
// (placement policy, control-thread strategy, oversubscription, block
// granularity, topology shape, NUMA distribution, OpenMP loop schedule,
// adaptive re-placement), the fabric studies A9–A14 (multi-node, rack tier,
// heterogeneous pod tier, cross-fabric shift, torus, fault injection) and the
// scheduler studies A15–A16. Every ORWL arm runs through one tail and one
// sweep (harness.go).
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

// runLK23 is the paper's LK23 block program (paper §III decomposition;
// BlocksOverride blocks, default one per core) run on the machine through
// runProgram, placed with pol or by the adaptive engine, with the memory
// contention of its main operations; it maps the run to its Result.
func runLK23(mach *numasim.Machine, cfg Config, impl Impl, pol placement.Policy, adaptive *placement.AdaptiveOptions) (Result, programRun, error) {
	blocks := cfg.BlocksOverride
	if blocks == 0 {
		blocks = mach.Topology().NumCores()
	}
	bx, by := BlockGrid(blocks)
	var prog *kernels.Program
	run, err := runProgram(mach, cfg.Seed, func(rt *orwl.Runtime) ([]bool, error) {
		var err error
		if prog, err = kernels.Build(rt, cfg.Rows, cfg.Cols, kernels.BuildOptions{
			BX: bx, BY: by, Iters: cfg.Iters, Costs: kernels.LK23Costs,
		}); err != nil {
			return nil, err
		}
		return prog.Heavy(), nil
	}, pol, adaptive)
	if err != nil {
		return Result{}, programRun{}, err
	}
	res := Result{
		Impl:     impl,
		Cores:    mach.Topology().NumCores(),
		Blocks:   blocks,
		Tasks:    len(prog.Tasks),
		Seconds:  run.seconds,
		Policy:   run.a.Policy,
		Strategy: run.a.Strategy.String(),
	}
	for _, t := range prog.Tasks {
		res.Migrations += t.Proc().Stats().Migrations
	}
	return res, run, nil
}

// Run executes one LK23 configuration with the given implementation and
// returns its simulated processing time.
func Run(impl Impl, cfg Config) (Result, error) {
	return lk23Arm{impl: impl, cfg: cfg.withDefaults()}.run()
}

// lk23Arm is one run of the paper's benchmark: the implementation, its
// configuration, the topology spec of the machine when it is not the
// configuration's own (Machine), and the OpenMP baseline's loop schedule.
type lk23Arm struct {
	impl  Impl
	cfg   Config
	spec  string
	sched omp.Schedule
}

// run executes the arm. A bound ORWL run places with cfg.Policy (default
// TreeMatch), an unbound one leaves every thread to the OS.
func (a lk23Arm) run() (Result, error) {
	if err := a.cfg.Validate(); err != nil {
		return Result{}, err
	}
	var pol placement.Policy = placement.NoBind{}
	switch a.impl {
	case ORWLBind:
		if pol = a.cfg.Policy; pol == nil {
			pol = placement.TreeMatch{}
		}
	case ORWLNoBind, OpenMP:
	default:
		return Result{}, fmt.Errorf("experiment: unknown implementation %q", a.impl)
	}
	var (
		mach *numasim.Machine
		err  error
	)
	if a.spec == "" {
		mach, err = Machine(a.cfg)
	} else {
		mach, err = machineFromSpec(a.spec)
	}
	if err != nil {
		return Result{}, err
	}
	if a.impl == OpenMP {
		return runOMP(mach, a.cfg, a.sched)
	}
	res, _, err := runLK23(mach, a.cfg, a.impl, pol, nil)
	return res, err
}

// ompSerialFraction is the fraction of the OpenMP working set whose pages
// end up on node 0 (the master's node: serially-touched head of the
// allocation). The remainder is spread by the parallel first touches.
const ompSerialFraction = 0.12

// runOMP executes the cost-only OpenMP baseline on the machine: Cores
// unbound threads sweeping the matrix row-wise under the loop schedule
// (static is the figure's baseline; the A7 ablation sweeps the others), with
// an implicit barrier per iteration. Memory placement models a realistic
// affinity-blind allocation: a serially-touched head of the arrays on node 0
// plus a body spread across the nodes by the parallel first touches.
func runOMP(mach *numasim.Machine, cfg Config, sched omp.Schedule) (Result, error) {
	team, err := omp.NewTeam(mach, cfg.Cores, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	nodes := mach.Topology().NumNUMANodes()
	totalBytes := float64(cfg.Rows) * float64(cfg.Cols) * kernels.LK23Costs.BytesPerCell
	head, err := mach.AllocOn("lk23-head", int64(totalBytes*ompSerialFraction), 0)
	if err != nil {
		return Result{}, err
	}
	body := mach.AllocInterleaved("lk23-body", int64(totalBytes*(1-ompSerialFraction)))

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
			p.MemRead(head, ompSerialFraction*costs.BytesPerCell*cells)
			p.MemRead(body, (1-ompSerialFraction)*costs.BytesPerCell*cells)
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
