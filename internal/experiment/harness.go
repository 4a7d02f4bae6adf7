package experiment

import (
	"fmt"
	"time"

	"repro/internal/kernels"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// The harness every study of the suite runs through. The paper's pipeline is
// one fixed sequence — ORWL program → communication matrix → placement →
// binding → run — and each study is that sequence with one stage swapped, so
// the sequence is written once here: one stencil iteration body
// (stencilTask), one node-block workload builder (blockStencil), one
// place → contend → run tail (runProgram) and one arm sweep (sweep). The
// paper ablations (A1–A8) and Figure 1 build the LK23 program on the tail
// (lk23.go:runLK23); the fabric studies (A9–A14) go one step further and
// share one scenario path (scenario): a study file declares only its
// platform spec, its extra reads and its arm table.

// stencilTask installs the iteration body shared by every stencil-shaped
// workload: each iteration acquires the reads in order, handing each straight
// back (a halo is consumed, not held), then takes the task's own block for
// writing, charges LK23's 11 flops per cell plus one sweep of the block's
// working set, and ends the iteration. before, when non-nil, runs at the top
// of every iteration; the phase-shift scenarios rotate their handle volumes
// there.
func stencilTask(task *orwl.Task, reads []*orwl.Handle, w *orwl.Handle, iters int, before func(it int)) {
	region, block := w.Location().Region(), w.Location().Size()
	cells := float64(block / 8)
	task.SetFunc(func(t *orwl.Task) error {
		for it := 0; it < iters; it++ {
			if before != nil {
				before(it)
			}
			last := it == iters-1
			for _, h := range reads {
				if err := h.Acquire(); err != nil {
					return err
				}
				if err := h.ReleaseOrNext(last); err != nil {
					return err
				}
			}
			if err := w.Acquire(); err != nil {
				return err
			}
			if p := t.Proc(); p != nil {
				p.Compute(kernels.LK23Costs.FlopsPerCell * cells)
				p.SweepWorkingSet(region, block)
			}
			if err := w.ReleaseOrNext(last); err != nil {
				return err
			}
			t.EndIteration()
		}
		return nil
	})
}

// blockStencil is the workload family of the fabric studies (A9–A14): one
// task per core, grouped into node-sized blocks. Task (b, slot) reads
// haloBytes from its neighbours on the block's grid — the heavy coupling
// that makes the blocks the min-cut partition groups — then whatever extra
// adds, and writes its own location. All volumes are whole bytes well below
// 2^53, so every accumulated matrix entry is exact and a run is
// bit-deterministic regardless of goroutine interleaving.
type blockStencil struct {
	sizes []int // tasks per block, in block order
	// width is the row length of every block's grid; 0 lays each block out
	// in 2 rows (one row when the block is too narrow).
	width      int
	iters      int
	blockBytes int64
	haloBytes  float64
	// extra, when non-nil, creates the reads of task (b, slot) beyond the
	// intra-block grid — the pair, wire and link exchanges a study is about
	// — and returns them in acquisition order, with an optional
	// top-of-iteration hook.
	extra func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(it int))
}

// locAt returns the location of a slot of a block.
type locAt func(b, slot int) *orwl.Location

// build constructs the workload on the runtime (runProgram's build hook);
// every task is heavy.
func (s blockStencil) build(rt *orwl.Runtime) ([]bool, error) {
	if s.iters < 1 {
		return nil, fmt.Errorf("experiment: iteration count %d must be positive", s.iters)
	}
	base := make([]int, len(s.sizes)) // first task index of each block
	var locs []*orwl.Location
	for b, sz := range s.sizes {
		base[b] = len(locs)
		for slot := 0; slot < sz; slot++ {
			locs = append(locs, rt.NewLocation(fmt.Sprintf("blk%d.%d", b, slot), s.blockBytes))
		}
	}
	at := locAt(func(b, slot int) *orwl.Location { return locs[base[b]+slot] })
	for b, sz := range s.sizes {
		gw := s.width
		if gw == 0 {
			gw = max(sz/2, 1)
		}
		for slot := 0; slot < sz; slot++ {
			task := rt.AddTask(fmt.Sprintf("t%d.%d", b, slot), nil)
			var reads []*orwl.Handle
			sx, sy := slot%gw, slot/gw
			for _, d := range [][2]int{{0, -1}, {0, 1}, {1, 0}, {-1, 0}} {
				nx, ny := sx+d[0], sy+d[1]
				if nx < 0 || nx >= gw || ny < 0 || ny*gw+nx >= sz {
					continue
				}
				reads = append(reads, task.NewHandleVol(at(b, ny*gw+nx), orwl.Read, s.haloBytes, 0))
			}
			var before func(int)
			if s.extra != nil {
				var more []*orwl.Handle
				more, before = s.extra(task, b, slot, at)
				reads = append(reads, more...)
			}
			w := task.NewHandleVol(at(b, slot), orwl.Write, s.haloBytes, 1)
			stencilTask(task, reads, w, s.iters, before)
		}
	}
	return nil, nil
}

// nodeSpec renders a member machine of cores cores in sockets of perSocket
// cores, each socket one shared L3 and one NUMA node.
func nodeSpec(cores, perSocket int) (string, error) {
	if cores < 1 || perSocket < 1 || cores%perSocket != 0 {
		return "", fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", cores, perSocket)
	}
	return fmt.Sprintf("pack:%d l3:1 core:%d pu:1", cores/perSocket, perSocket), nil
}

// scenario is one fabric study (A9–A14) at one shape: the platform spec and
// its link attributes, the workload and the failures to inject. A study
// builds it once from its configuration; every arm runs it on a fresh
// platform.
type scenario struct {
	spec  string
	attrs topology.Defaults
	// oneMachine is the spec of one shared-memory machine with the
	// platform's core count, the fabric-free reference arm of A9.
	oneMachine string
	stencil    blockStencil
	seed       int64
	// faults builds the failure schedule (A14) against each arm's fabric.
	faults func(*topology.FabricGraph) *topology.FaultSchedule
}

// fabricArm is what one arm of a fabric study swaps: the one-shot policy, or
// the adaptive engine's options (its Base is then the initial policy), and
// whether the arm runs on the scenario's one shared-memory machine.
type fabricArm struct {
	policy     placement.Policy
	adaptive   *placement.AdaptiveOptions
	oneMachine bool
}

// platform builds the scenario's simulated platform.
func (s scenario) platform() (*numasim.Platform, error) {
	return numasim.NewPlatformAttrs(s.spec, s.attrs, numasim.Config{})
}

// platformOf returns the platform of a scenario a configuration built, or
// the build's error.
func platformOf(s scenario, err error) (*numasim.Platform, error) {
	if err != nil {
		return nil, err
	}
	return s.platform()
}

// run executes one arm on a fresh platform through runProgram.
func (s scenario) run(a fabricArm) (programRun, error) {
	if a.oneMachine {
		s.spec = s.oneMachine
	}
	p, err := s.platform()
	if err != nil {
		return programRun{}, err
	}
	mach := p.Machine()
	if s.faults != nil && a.adaptive != nil {
		opts := *a.adaptive
		opts.Faults = s.faults(mach.Topology().FabricGraph())
		a.adaptive = &opts
	}
	return runProgram(mach, s.seed, s.stencil.build, a.policy, a.adaptive)
}

// runMode runs the arm named mode on the scenario, unless building the
// scenario failed with err.
func (s scenario) runMode(study string, arms []arm[fabricArm], mode string, err error) (programRun, error) {
	if err != nil {
		return programRun{}, err
	}
	a, err := armPolicy(study, arms, mode)
	if err != nil {
		return programRun{}, err
	}
	return s.run(a)
}

// result renders a run of the scenario as the Result of a bound ORWL run:
// one task per core, one block per node (zero for a failed run).
func (s scenario) result(r programRun) Result {
	if r.a == nil {
		return Result{}
	}
	tasks := 0
	for _, sz := range s.stencil.sizes {
		tasks += sz
	}
	return Result{
		Impl: ORWLBind, Cores: tasks, Blocks: len(s.stencil.sizes), Tasks: tasks,
		Seconds: r.seconds, Policy: r.a.Policy, Strategy: r.a.Strategy.String(),
	}
}

// sweep runs every arm of a fabric study on the scenario, one row per arm;
// detail renders an arm's Detail column.
func (s scenario) sweep(study string, arms []arm[fabricArm], detail func(fabricArm, programRun) string) ([]AblationRow, error) {
	return sweep(study, study+"/", arms, s.run, func(a arm[fabricArm], r programRun) AblationRow {
		return AblationRow{Seconds: r.seconds, Detail: detail(a.policy, r)}
	})
}

// uniformBlocks returns the block sizes of a platform of identical nodes.
func uniformBlocks(blocks, size int) []int {
	sizes := make([]int, blocks)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}

// programRun is what the shared tail reports about one arm.
type programRun struct {
	seconds float64
	// placeWall is the real time the placement call took, contention
	// declaration included.
	placeWall float64
	// a is the placement in force when the run started.
	a *placement.Assignment
	// stats is the adaptive engine's decision record (zero for one-shot arms).
	stats placement.AdaptiveStats
}

// runProgram is the tail every arm shares: a runtime on the machine, the
// program build constructs on it (build returns the heavy-task mask of
// placement.SetContention, nil for every task), placed — one-shot with pol,
// or through the epoch-based engine when adaptive is non-nil (its Base is
// then the initial policy), which also declares the contention the placement
// implies — and the run.
func runProgram(mach *numasim.Machine, seed int64, build func(*orwl.Runtime) ([]bool, error), pol placement.Policy, adaptive *placement.AdaptiveOptions) (programRun, error) {
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: seed})
	heavy, err := build(rt)
	if err != nil {
		return programRun{}, err
	}
	var (
		res programRun
		eng *placement.AdaptiveEngine
	)
	start := time.Now()
	if adaptive != nil {
		if eng, err = placement.PlaceAdaptive(rt, *adaptive, heavy); err == nil {
			res.a = eng.Assignment()
		}
	} else {
		res.a, err = placement.Place(rt, pol, heavy)
	}
	if err != nil {
		return programRun{}, err
	}
	res.placeWall = time.Since(start).Seconds()
	if err := rt.Run(); err != nil {
		return programRun{}, err
	}
	res.seconds = rt.MakespanSeconds()
	if eng != nil {
		if err := eng.Err(); err != nil {
			return programRun{}, err
		}
		res.stats = eng.Stats()
	}
	return res, nil
}

// arm is one row of a study: the name the report prints and the one thing
// the arm swaps in the pipeline.
type arm[P any] struct {
	name   string
	policy P
}

// armPolicy resolves a mode name against a study's arm table.
func armPolicy[P any](study string, arms []arm[P], mode string) (P, error) {
	for _, a := range arms {
		if a.name == mode {
			return a.policy, nil
		}
	}
	var none P
	return none, fmt.Errorf("experiment: unknown %s mode %q", study, mode)
}

// sweep runs every arm of a study in report order (the first arm is the
// speedup base) and renders one row per arm, named prefix + arm name (the
// paper ablations A1–A7 pass an empty prefix: their rows carry none). run
// executes one arm; row turns its result into the row's seconds and detail.
// An error names the study and the arm.
func sweep[P, R any](study, prefix string, arms []arm[P], run func(P) (R, error), row func(arm[P], R) AblationRow) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(arms))
	for _, a := range arms {
		res, err := run(a.policy)
		if err != nil {
			return nil, fmt.Errorf("ablation %s, %s: %w", study, a.name, err)
		}
		r := row(a, res)
		r.Name = prefix + a.name
		rows = append(rows, r)
	}
	return rows, nil
}
