package experiment

import (
	"testing"

	"repro/internal/placement"
)

func phaseCfg() PhaseShiftConfig {
	return PhaseShiftConfig{Cores: 48, Seed: 7}
}

// TestPhaseShiftAdaptiveBeatsStatic is the acceptance criterion of the
// adaptive engine: on a workload whose communication pattern rotates
// mid-run, epoch-based re-placement must beat the one-shot static pipeline,
// and the free-migration oracle bounds it from below.
func TestPhaseShiftAdaptiveBeatsStatic(t *testing.T) {
	static, err := RunPhaseShift("static", phaseCfg())
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := RunPhaseShift("adaptive", phaseCfg())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := RunPhaseShift("oracle", phaseCfg())
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Seconds >= static.Seconds {
		t.Errorf("adaptive %.4fs not faster than static %.4fs on the phase shift",
			adaptive.Seconds, static.Seconds)
	}
	if oracle.Seconds > adaptive.Seconds {
		t.Errorf("oracle %.4fs slower than adaptive %.4fs; free migration must bound it",
			oracle.Seconds, adaptive.Seconds)
	}
	if adaptive.Stats.Rebinds == 0 {
		t.Errorf("adaptive run moved no tasks; the phase shift went unnoticed (stats %+v)", adaptive.Stats)
	}
	if adaptive.Stats.Applied < 1 {
		t.Errorf("no epoch applied a re-placement (stats %+v)", adaptive.Stats)
	}
}

func TestPhaseShiftDeterministic(t *testing.T) {
	for _, mode := range []string{"static", "adaptive", "oracle"} {
		a, err := RunPhaseShift(mode, phaseCfg())
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunPhaseShift(mode, phaseCfg())
		if err != nil {
			t.Fatal(err)
		}
		if a.Seconds != b.Seconds {
			t.Errorf("%s not deterministic: %v vs %v", mode, a.Seconds, b.Seconds)
		}
		if a.Seconds <= 0 {
			t.Errorf("%s: non-positive makespan %v", mode, a.Seconds)
		}
	}
}

func TestPhaseShiftValidation(t *testing.T) {
	if _, err := RunPhaseShift("nonsense", phaseCfg()); err == nil {
		t.Errorf("unknown mode accepted")
	}
	cfg := phaseCfg()
	cfg.Cores = 7 // odd task count: the opposite pairing is undefined
	cfg.CoresPerSocket = 7
	if _, err := RunPhaseShift("static", cfg); err == nil {
		t.Errorf("odd task count accepted")
	}
}

// TestAdaptiveStationaryNoRegression is the other half of the acceptance
// criterion: on the stationary LK23 workload the engine must hold still
// (hysteresis rejects permutation-equivalent candidates) and the makespan
// must stay within migration noise of the static placement.
func TestAdaptiveStationaryNoRegression(t *testing.T) {
	cfg := Config{Rows: 2048, Cols: 2048, Iters: 10, Cores: 48, Seed: 7}
	static, err := Run(ORWLBind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive, stats, err := RunAdaptive(cfg, placement.AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rebinds != 0 {
		t.Errorf("stationary workload caused %d rebinds (stats %+v)", stats.Rebinds, stats)
	}
	if adaptive.Seconds > static.Seconds*1.02 {
		t.Errorf("adaptive %.4fs regresses static %.4fs by more than migration noise",
			adaptive.Seconds, static.Seconds)
	}
	// Determinism of the adaptive run.
	again, _, err := RunAdaptive(cfg, placement.AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if adaptive.Seconds != again.Seconds {
		t.Errorf("adaptive stationary run not deterministic: %v vs %v", adaptive.Seconds, again.Seconds)
	}
}

func TestAblationAdaptive(t *testing.T) {
	cfg := Config{Rows: 2048, Cols: 2048, Iters: 10, Cores: 48, Seed: 7}
	rows, err := AblationAdaptive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s: non-positive time %v", r.Name, r.Seconds)
		}
		byName[r.Name] = r.Seconds
	}
	for _, name := range []string{"phase/static", "phase/adaptive", "phase/oracle", "lk23/static", "lk23/adaptive"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("ablation misses row %q (got %v)", name, rows)
		}
	}
	if byName["phase/adaptive"] >= byName["phase/static"] {
		t.Errorf("ablation: adaptive %v not faster than static %v on the phase shift",
			byName["phase/adaptive"], byName["phase/static"])
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config (all defaults) rejected: %v", err)
	}
	bad := []Config{
		{Rows: 2},
		{Cols: -1},
		{Iters: -5},
		{Cores: -1},
		{CoresPerSocket: -1},
		{BlocksOverride: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}
