package experiment

import (
	"fmt"

	"repro/internal/orwl"
	"repro/internal/placement"
)

// The adaptive experiment (A8) probes the epoch-based re-placement engine
// with the one workload class a one-shot placement cannot serve: a program
// whose communication pattern shifts mid-run. The paper's pipeline decides
// once, from the statically predicted affinity matrix; after the shift that
// prediction is simply wrong, and only a runtime that feeds the measured
// communication window back into placement can recover.
//
// The phase-shifting workload is an iterative ring of tasks (one per core,
// LK23-like per-iteration costs) where each task exchanges halos with its
// ring neighbours for the first half of the run, then abruptly with its
// diametrically opposite task for the second half. A placement that packs
// ring segments per socket — optimal for phase one — makes every phase-two
// exchange cross the machine. The task count must be even and at least 4
// for the opposite pairing to be well defined.

// The phase-shift run: phaseShiftIters iterations, the pattern shifting
// after phaseShiftAt; each task sweeps a phaseShiftBlockBytes working set
// (dragged along when migrated) and exchanges phaseShiftHaloBytes per
// iteration with each active partner; the engine re-decides every
// phaseShiftEpochIters iterations.
const (
	phaseShiftIters      = 48
	phaseShiftAt         = phaseShiftIters / 2
	phaseShiftBlockBytes = 4 << 20
	phaseShiftHaloBytes  = 1 << 20
	phaseShiftEpochIters = 4
)

// phaseShiftEps is the volume of an inactive partner handle: the protocol
// still cycles through it every iteration (the handle set is fixed at build
// time), but it carries a negligible 8 bytes.
const phaseShiftEps = 8

// buildPhaseShift constructs the phase-shifting ring of n tasks on the
// runtime: task i writes its own block location and reads its left, right
// and opposite partners' blocks each iteration, with the heavy volume on
// the ring partners before the shift and on the opposite partner after it.
// All volumes are whole bytes well below 2^53, so every accumulated matrix
// entry is exact and the run is bit-deterministic regardless of goroutine
// interleaving.
func buildPhaseShift(rt *orwl.Runtime, n int) error {
	if n < 4 || n%2 != 0 {
		return fmt.Errorf("experiment: phase shift needs an even task count >= 4, got %d", n)
	}
	locs := make([]*orwl.Location, n)
	for i := 0; i < n; i++ {
		locs[i] = rt.NewLocation(fmt.Sprintf("blk%d", i), phaseShiftBlockBytes)
	}
	for i := 0; i < n; i++ {
		task := rt.AddTask(fmt.Sprintf("p%d", i), nil)
		rL := task.NewHandleVol(locs[(i+n-1)%n], orwl.Read, phaseShiftHaloBytes, 0)
		rR := task.NewHandleVol(locs[(i+1)%n], orwl.Read, phaseShiftHaloBytes, 0)
		rO := task.NewHandleVol(locs[(i+n/2)%n], orwl.Read, phaseShiftEps, 0)
		w := task.NewHandleVol(locs[i], orwl.Write, phaseShiftHaloBytes, 1)
		stencilTask(task, []*orwl.Handle{rL, rR, rO}, w, phaseShiftIters, func(it int) {
			if it == phaseShiftAt {
				// The communication pattern rotates: ring partners go
				// quiet, the opposite task becomes the heavy partner.
				rL.SetVolume(phaseShiftEps)
				rR.SetVolume(phaseShiftEps)
				rO.SetVolume(phaseShiftHaloBytes)
			}
		})
	}
	return nil
}

// runPhaseShift runs the phase-shifting ring with one task per core of
// cfg's machine (no SMT) under one arm of phaseShiftArms.
func runPhaseShift(adaptive *placement.AdaptiveOptions, cfg Config) (programRun, error) {
	mach, err := Machine(Config{Cores: cfg.Cores, CoresPerSocket: cfg.CoresPerSocket})
	if err != nil {
		return programRun{}, err
	}
	return runProgram(mach, cfg.Seed, func(rt *orwl.Runtime) ([]bool, error) { return nil, buildPhaseShift(rt, cfg.Cores) },
		placement.TreeMatch{}, adaptive)
}

// phaseShiftArms are the placement modes of the phase-shift workload:
//
//   - "static": the paper's one-shot pipeline — TreeMatch from the static
//     affinity matrix, never revisited (the nil entry);
//   - "adaptive": the epoch-based engine — same initial placement, then a
//     re-placement decision from the measured window every
//     phaseShiftEpochIters iterations, applied only when the predicted gain
//     clears the modeled migration cost;
//   - "oracle": the adaptive engine with free migration and no hysteresis,
//     an upper bound on what re-placement could gain.
var phaseShiftArms = []arm[*placement.AdaptiveOptions]{
	{"static", nil},
	{"adaptive", &placement.AdaptiveOptions{Base: placement.TreeMatch{}, EpochIters: phaseShiftEpochIters}},
	{"oracle", &placement.AdaptiveOptions{Base: placement.TreeMatch{}, EpochIters: phaseShiftEpochIters, FreeMigration: true}},
}

// runAdaptive executes the standard (stationary) LK23 configuration under
// the adaptive engine instead of the one-shot pipeline, re-deciding every
// fifth of the run, for the regression half of the adaptive ablation: on a
// workload whose pattern never changes, hysteresis must keep the engine
// still and the result within migration noise of the static placement.
func runAdaptive(cfg Config) (Result, placement.AdaptiveStats, error) {
	cfg = cfg.withDefaults()
	mach, err := Machine(cfg)
	if err != nil {
		return Result{}, placement.AdaptiveStats{}, err
	}
	res, run, err := runLK23(mach, cfg, ORWLBind, nil, &placement.AdaptiveOptions{EpochIters: max(cfg.Iters/5, 1)})
	return res, run.stats, err
}

// AblationAdaptive (A8) compares one-shot static placement against the
// epoch-based adaptive engine and its free-migration oracle bound, on the
// two regimes that matter: the phase-shifting workload (where adapting must
// win) and the stationary LK23 workload (where adapting must not lose).
func AblationAdaptive(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	rows, err := sweep("adaptive", "phase/", phaseShiftArms,
		func(adaptive *placement.AdaptiveOptions) (programRun, error) {
			return runPhaseShift(adaptive, cfg)
		},
		func(a arm[*placement.AdaptiveOptions], run programRun) AblationRow {
			row := AblationRow{Seconds: run.seconds}
			if a.policy != nil {
				row.Detail = adaptiveDetail(run.stats)
			}
			return row
		})
	if err != nil {
		return nil, err
	}
	static, err := Run(ORWLBind, cfg)
	if err != nil {
		return nil, fmt.Errorf("ablation adaptive, stationary static: %w", err)
	}
	rows = append(rows, AblationRow{Name: "lk23/static", Seconds: static.Seconds})
	adaptive, st, err := runAdaptive(cfg)
	if err != nil {
		return nil, fmt.Errorf("ablation adaptive, stationary adaptive: %w", err)
	}
	return append(rows, AblationRow{Name: "lk23/adaptive", Seconds: adaptive.Seconds, Detail: adaptiveDetail(st)}), nil
}

// adaptiveDetail renders the engine's decision counters for a report row.
func adaptiveDetail(st placement.AdaptiveStats) string {
	return fmt.Sprintf("epochs=%d applied=%d rebinds=%d", st.Epochs, st.Applied, st.Rebinds)
}
