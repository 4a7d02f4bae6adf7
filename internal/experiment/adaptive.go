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

// PhaseShiftConfig parameterizes the phase-shifting workload: an iterative
// ring of tasks (one per core, LK23-like per-iteration costs) where each
// task exchanges halos with its ring neighbours for the first half of the
// run, then abruptly with its diametrically opposite task for the second
// half. A placement that packs ring segments per socket — optimal for phase
// one — makes every phase-two exchange cross the machine.
type PhaseShiftConfig struct {
	// Cores and CoresPerSocket shape the machine (defaults 48 and 8); one
	// task runs per core. The task count must be even and at least 4 for
	// the opposite pairing to be well defined.
	Cores, CoresPerSocket int
	// Iters is the total iteration count (default 48); the pattern shifts
	// after ShiftAt iterations (default Iters/2).
	Iters, ShiftAt int
	// BlockBytes is each task's working set (default 4 MiB): the data it
	// sweeps per iteration and drags along when migrated.
	BlockBytes int64
	// HaloBytes is the per-iteration volume exchanged with each active
	// partner (default 1 MiB). Inactive partners exchange 8 bytes.
	HaloBytes float64
	// EpochIters is the re-placement interval (default 4).
	EpochIters int
	// Hysteresis and WindowDecay tune the adaptive engine (see
	// placement.AdaptiveOptions).
	Hysteresis, WindowDecay float64
	// Seed drives the simulated OS scheduler (unused while all tasks stay
	// bound, but kept for symmetry with Config).
	Seed int64
}

func (c PhaseShiftConfig) withDefaults() PhaseShiftConfig {
	if c.Cores == 0 {
		c.Cores = 48
	}
	if c.CoresPerSocket == 0 {
		c.CoresPerSocket = 8
	}
	if c.Iters == 0 {
		c.Iters = 48
	}
	if c.ShiftAt == 0 {
		c.ShiftAt = c.Iters / 2
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 4 << 20
	}
	if c.HaloBytes == 0 {
		c.HaloBytes = 1 << 20
	}
	if c.EpochIters == 0 {
		c.EpochIters = 4
	}
	return c
}

// PhaseShiftResult reports one phase-shift run.
type PhaseShiftResult struct {
	Mode    string // "static", "adaptive" or "oracle"
	Seconds float64
	// Stats is the adaptive engine's decision record (zero for static).
	Stats placement.AdaptiveStats
}

// String renders a one-line summary.
func (r PhaseShiftResult) String() string {
	return fmt.Sprintf("%-8s time=%8.3fs epochs=%d applied=%d rebinds=%d",
		r.Mode, r.Seconds, r.Stats.Epochs, r.Stats.Applied, r.Stats.Rebinds)
}

// phaseShiftEps is the volume of an inactive partner handle: the protocol
// still cycles through it every iteration (the handle set is fixed at build
// time), but it carries a negligible 8 bytes.
const phaseShiftEps = 8

// buildPhaseShift constructs the phase-shifting ring on the runtime: task i
// writes its own block location and reads its left, right and opposite
// partners' blocks each iteration, with the heavy volume on the ring
// partners before the shift and on the opposite partner after it. All
// volumes are whole bytes well below 2^53, so every accumulated matrix
// entry is exact and the run is bit-deterministic regardless of goroutine
// interleaving.
func buildPhaseShift(rt *orwl.Runtime, cfg PhaseShiftConfig) error {
	n := cfg.Cores
	if n < 4 || n%2 != 0 {
		return fmt.Errorf("experiment: phase shift needs an even task count >= 4, got %d", n)
	}
	locs := make([]*orwl.Location, n)
	for i := 0; i < n; i++ {
		locs[i] = rt.NewLocation(fmt.Sprintf("blk%d", i), cfg.BlockBytes)
	}
	for i := 0; i < n; i++ {
		task := rt.AddTask(fmt.Sprintf("p%d", i), nil)
		rL := task.NewHandleVol(locs[(i+n-1)%n], orwl.Read, cfg.HaloBytes, 0)
		rR := task.NewHandleVol(locs[(i+1)%n], orwl.Read, cfg.HaloBytes, 0)
		rO := task.NewHandleVol(locs[(i+n/2)%n], orwl.Read, phaseShiftEps, 0)
		w := task.NewHandleVol(locs[i], orwl.Write, cfg.HaloBytes, 1)
		stencilTask(task, []*orwl.Handle{rL, rR, rO}, w, cfg.Iters, func(it int) {
			if it == cfg.ShiftAt {
				// The communication pattern rotates: ring partners go
				// quiet, the opposite task becomes the heavy partner.
				rL.SetVolume(phaseShiftEps)
				rR.SetVolume(phaseShiftEps)
				rO.SetVolume(cfg.HaloBytes)
			}
		})
	}
	return nil
}

// RunPhaseShift executes the phase-shifting workload under one of three
// placement modes:
//
//   - "static": the paper's one-shot pipeline — TreeMatch from the static
//     affinity matrix, never revisited;
//   - "adaptive": the epoch-based engine — same initial placement, then a
//     re-placement decision from the measured window every EpochIters
//     iterations, applied only when the predicted gain clears the modeled
//     migration cost;
//   - "oracle": the adaptive engine with free migration and no hysteresis,
//     an upper bound on what re-placement could gain.
func RunPhaseShift(mode string, cfg PhaseShiftConfig) (PhaseShiftResult, error) {
	cfg = cfg.withDefaults()
	adaptive, err := armPolicy("phase-shift", phaseShiftArms, mode)
	if err != nil {
		return PhaseShiftResult{}, err
	}
	res, err := runPhaseShift(adaptive, cfg)
	res.Mode = mode
	return res, err
}

func runPhaseShift(adaptive *placement.AdaptiveOptions, cfg PhaseShiftConfig) (PhaseShiftResult, error) {
	mach, err := Machine(Config{Cores: cfg.Cores, CoresPerSocket: cfg.CoresPerSocket})
	if err != nil {
		return PhaseShiftResult{}, err
	}
	run, err := runStencil(mach, cfg.Seed, func(rt *orwl.Runtime) error { return buildPhaseShift(rt, cfg) },
		placement.TreeMatch{}, tuned(adaptive, cfg.EpochIters, cfg.Hysteresis, cfg.WindowDecay))
	if err != nil {
		return PhaseShiftResult{}, err
	}
	return PhaseShiftResult{Seconds: run.seconds, Stats: run.stats}, nil
}

// phaseShiftArms are the placement modes of the phase-shift workload; a nil
// entry is the engine-less one-shot pipeline.
var phaseShiftArms = []arm[*placement.AdaptiveOptions]{
	{"static", nil},
	{"adaptive", &placement.AdaptiveOptions{Base: placement.TreeMatch{}}},
	{"oracle", &placement.AdaptiveOptions{Base: placement.TreeMatch{}, FreeMigration: true}},
}

// RunAdaptive executes the standard (stationary) LK23 configuration under
// the adaptive engine instead of the one-shot pipeline, for the regression
// half of the adaptive ablation: on a workload whose pattern never changes,
// hysteresis must keep the engine still and the result within migration
// noise of the static placement.
func RunAdaptive(cfg Config, opts placement.AdaptiveOptions) (Result, placement.AdaptiveStats, error) {
	cfg = cfg.withDefaults()
	if opts.EpochIters == 0 {
		opts.EpochIters = max(cfg.Iters/5, 1)
	}
	mach, err := Machine(cfg)
	if err != nil {
		return Result{}, placement.AdaptiveStats{}, err
	}
	var eng *placement.AdaptiveEngine
	res, _, err := runLK23(mach, cfg, ORWLBind, func(rt *orwl.Runtime) (*placement.Assignment, error) {
		var err error
		if eng, err = placement.PlaceAdaptive(rt, opts); err != nil {
			return nil, err
		}
		return eng.Assignment(), nil
	})
	if err != nil {
		return Result{}, placement.AdaptiveStats{}, err
	}
	if err := eng.Err(); err != nil {
		return Result{}, placement.AdaptiveStats{}, err
	}
	return res, eng.Stats(), nil
}

// AblationAdaptive (A8) compares one-shot static placement against the
// epoch-based adaptive engine and its free-migration oracle bound, on the
// two regimes that matter: the phase-shifting workload (where adapting must
// win) and the stationary LK23 workload (where adapting must not lose).
func AblationAdaptive(cfg Config) ([]AblationRow, error) {
	cfg = cfg.withDefaults()
	ps := PhaseShiftConfig{
		Cores:          cfg.Cores,
		CoresPerSocket: cfg.CoresPerSocket,
		Seed:           cfg.Seed,
	}.withDefaults()
	rows, err := sweep("phase", phaseShiftArms,
		func(adaptive *placement.AdaptiveOptions) (PhaseShiftResult, error) {
			return runPhaseShift(adaptive, ps)
		},
		func(a arm[*placement.AdaptiveOptions], res PhaseShiftResult) AblationRow {
			row := AblationRow{Seconds: res.Seconds}
			if a.policy != nil {
				row.Detail = adaptiveDetail(res.Stats)
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
	adaptive, st, err := RunAdaptive(cfg, placement.AdaptiveOptions{})
	if err != nil {
		return nil, fmt.Errorf("ablation adaptive, stationary adaptive: %w", err)
	}
	return append(rows, AblationRow{Name: "lk23/adaptive", Seconds: adaptive.Seconds, Detail: adaptiveDetail(st)}), nil
}

// adaptiveDetail renders the engine's decision counters for a report row.
func adaptiveDetail(st placement.AdaptiveStats) string {
	return fmt.Sprintf("epochs=%d applied=%d rebinds=%d", st.Epochs, st.Applied, st.Rebinds)
}
