package experiment

import (
	"fmt"
	"time"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
)

// The harness every beyond-the-paper study runs through. The paper's
// pipeline is one fixed sequence — ORWL program → communication matrix →
// placement → binding → run — and each study is that sequence with one stage
// swapped, so the sequence is written once here: one stencil iteration body
// (stencilTask), one node-block workload builder (blockStencil), one
// place → contend → run tail (runStencil) and one arm sweep (sweep). A study
// file declares only what it swaps: its platform, its extra reads, and its
// arm table.

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
				if err := releaseOrNext(h, last); err != nil {
					return err
				}
			}
			if err := w.Acquire(); err != nil {
				return err
			}
			if p := t.Proc(); p != nil {
				p.Compute(11 * cells)
				p.SweepWorkingSet(region, block)
			}
			if err := releaseOrNext(w, last); err != nil {
				return err
			}
			t.EndIteration()
		}
		return nil
	})
}

// releaseOrNext releases the handle on the last iteration and re-requests
// it (the iterative ORWL primitive) otherwise.
func releaseOrNext(h *orwl.Handle, last bool) error {
	if last {
		return h.Release()
	}
	return h.ReleaseAndRequest()
}

// blockStencil is the workload family of the fabric studies (A10–A14): one
// task per core, grouped into node-sized blocks. Task (b, slot) reads
// haloBytes from its neighbours on the block's 2-row grid (one row when the
// block is too narrow) — the heavy coupling that makes the blocks the
// min-cut partition groups — then whatever extra adds, and writes its own
// location. All volumes are whole bytes well below 2^53, so every
// accumulated matrix entry is exact and a run is bit-deterministic
// regardless of goroutine interleaving.
type blockStencil struct {
	sizes      []int // tasks per block, in block order
	iters      int
	blockBytes int64
	haloBytes  float64
	// extra creates the reads of task (b, slot) beyond the intra-block grid
	// — the pair, wire and link exchanges a study is about — and returns
	// them in acquisition order, with an optional top-of-iteration hook.
	extra func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(it int))
}

// locAt returns the location of a slot of a block.
type locAt func(b, slot int) *orwl.Location

// build constructs the workload on the runtime; it cannot fail (the error
// return matches runStencil's build hook).
func (s blockStencil) build(rt *orwl.Runtime) error {
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
		gw := max(sz/2, 1)
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
			more, before := s.extra(task, b, slot, at)
			reads = append(reads, more...)
			w := task.NewHandleVol(at(b, slot), orwl.Write, s.haloBytes, 1)
			stencilTask(task, reads, w, s.iters, before)
		}
	}
	return nil
}

// uniformBlocks returns the block sizes of a platform of identical nodes.
func uniformBlocks(blocks, size int) []int {
	sizes := make([]int, blocks)
	for i := range sizes {
		sizes[i] = size
	}
	return sizes
}

// stencilRun is what the shared tail reports about one arm.
type stencilRun struct {
	seconds float64
	// placeWall is the real time the placement call alone took.
	placeWall float64
	// a is the placement in force when the run started.
	a *placement.Assignment
	// stats is the adaptive engine's decision record (zero for one-shot arms).
	stats placement.AdaptiveStats
}

// result renders the run as the Result of a bound ORWL arm.
func (r stencilRun) result(cores, blocks int) Result {
	return Result{
		Impl: ORWLBind, Cores: cores, Blocks: blocks, Tasks: cores,
		Seconds: r.seconds, Policy: r.a.Policy, Strategy: r.a.Strategy.String(),
	}
}

// runStencil is the tail every stencil arm shares: a runtime on the machine,
// the program built on it, placed — one-shot with pol, or through the
// epoch-based engine when adaptive is non-nil (its Base is then the initial
// policy) — the memory and fabric contention declared from the placement,
// and the run.
func runStencil(mach *numasim.Machine, seed int64, build func(*orwl.Runtime) error, pol placement.Policy, adaptive *placement.AdaptiveOptions) (stencilRun, error) {
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: seed})
	if err := build(rt); err != nil {
		return stencilRun{}, err
	}
	var (
		res stencilRun
		eng *placement.AdaptiveEngine
		err error
	)
	start := time.Now()
	if adaptive != nil {
		if eng, err = placement.PlaceAdaptive(rt, *adaptive); err == nil {
			res.a = eng.Assignment()
		}
	} else {
		res.a, err = placement.Place(rt, pol)
	}
	if err != nil {
		return stencilRun{}, err
	}
	res.placeWall = time.Since(start).Seconds()
	placement.SetContention(mach, res.a, nil)
	placement.SetFabricContention(mach, res.a, rt.CommMatrix())
	if err := rt.Run(); err != nil {
		return stencilRun{}, err
	}
	res.seconds = rt.MakespanSeconds()
	if eng != nil {
		if err := eng.Err(); err != nil {
			return stencilRun{}, err
		}
		res.stats = eng.Stats()
	}
	return res, nil
}

// tuned returns an arm's engine options with the run's epoch interval and
// hysteresis knobs filled in; nil (a one-shot arm) stays nil.
func tuned(tmpl *placement.AdaptiveOptions, epochIters int, hysteresis, windowDecay float64) *placement.AdaptiveOptions {
	if tmpl == nil {
		return nil
	}
	opts := *tmpl
	opts.EpochIters, opts.Hysteresis, opts.WindowDecay = epochIters, hysteresis, windowDecay
	return &opts
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
// speedup base) and renders one row per arm, named "study/arm". run executes
// one arm; row turns its result into the row's seconds, detail and wall time.
func sweep[P, R any](study string, arms []arm[P], run func(P) (R, error), row func(arm[P], R) AblationRow) ([]AblationRow, error) {
	rows := make([]AblationRow, 0, len(arms))
	for _, a := range arms {
		res, err := run(a.policy)
		if err != nil {
			return nil, fmt.Errorf("ablation %s, %s: %w", study, a.name, err)
		}
		r := row(a, res)
		r.Name = study + "/" + a.name
		rows = append(rows, r)
	}
	return rows, nil
}
