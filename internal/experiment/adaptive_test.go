package experiment

import "testing"

func phaseCfg() Config {
	return Config{Cores: 48, CoresPerSocket: 8, Seed: 7}
}

// phaseRuns runs every arm of phaseShiftArms on cfg, keyed by arm name.
func phaseRuns(t *testing.T, cfg Config) map[string]programRun {
	t.Helper()
	runs := map[string]programRun{}
	for _, a := range phaseShiftArms {
		run, err := runPhaseShift(a.policy, cfg)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		runs[a.name] = run
	}
	return runs
}

// TestPhaseShiftAdaptiveBeatsStatic is the acceptance criterion of the
// adaptive engine: on a workload whose communication pattern rotates
// mid-run, epoch-based re-placement must beat the one-shot static pipeline,
// and the free-migration oracle bounds it from below.
func TestPhaseShiftAdaptiveBeatsStatic(t *testing.T) {
	runs := phaseRuns(t, phaseCfg())
	static, adaptive, oracle := runs["static"], runs["adaptive"], runs["oracle"]
	if adaptive.seconds >= static.seconds {
		t.Errorf("adaptive %.4fs not faster than static %.4fs on the phase shift",
			adaptive.seconds, static.seconds)
	}
	if oracle.seconds > adaptive.seconds {
		t.Errorf("oracle %.4fs slower than adaptive %.4fs; free migration must bound it",
			oracle.seconds, adaptive.seconds)
	}
	if adaptive.stats.Rebinds == 0 {
		t.Errorf("adaptive run moved no tasks; the phase shift went unnoticed (stats %+v)", adaptive.stats)
	}
	if adaptive.stats.Applied < 1 {
		t.Errorf("no epoch applied a re-placement (stats %+v)", adaptive.stats)
	}
}

func TestPhaseShiftDeterministic(t *testing.T) {
	first, again := phaseRuns(t, phaseCfg()), phaseRuns(t, phaseCfg())
	for _, a := range phaseShiftArms {
		x, y := first[a.name].seconds, again[a.name].seconds
		if x != y {
			t.Errorf("%s not deterministic: %v vs %v", a.name, x, y)
		}
		if x <= 0 {
			t.Errorf("%s: non-positive makespan %v", a.name, x)
		}
	}
}

func TestPhaseShiftValidation(t *testing.T) {
	cfg := phaseCfg()
	cfg.Cores = 7 // odd task count: the opposite pairing is undefined
	cfg.CoresPerSocket = 7
	if _, err := runPhaseShift(nil, cfg); err == nil {
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
	adaptive, stats, err := runAdaptive(cfg)
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
	again, _, err := runAdaptive(cfg)
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
