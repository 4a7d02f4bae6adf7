package experiment

import (
	"testing"
)

// torusCfg is the 4-core-node, 8-iteration torus of the tests.
func torusCfg(dims []int, seed int64) TorusConfig {
	return TorusConfig{Dims: dims, CoresPerNode: 4, CoresPerSocket: 4, Iters: 8, Scramble: 1, Seed: seed}
}

// TestAblationTorus asserts the A13 ordering — routed distance matching
// with the space-filling-curve seed beats the positional group→node order
// (which inherits the scramble), which beats round-robin — on two torus shapes and two scheduler seeds, both
// relations strict.
func TestAblationTorus(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {2, 2, 4}} {
		for _, seed := range []int64{7, 42} {
			cfg := torusCfg(dims, seed)
			rows, err := torusRows(cfg)
			if err != nil {
				t.Fatalf("dims=%v seed=%d: %v", dims, seed, err)
			}
			if len(rows) != len(torusArms) {
				t.Fatalf("dims=%v: %d rows, want %d", dims, len(rows), len(torusArms))
			}
			for _, r := range rows {
				if r.Seconds <= 0 {
					t.Errorf("dims=%v seed=%d: %s simulated %vs", dims, seed, r.Name, r.Seconds)
				}
			}
			if err := CheckOrderings(rows, AblationOrderings("torus")); err != nil {
				t.Errorf("dims=%v seed=%d: %v", dims, seed, err)
			}
		}
	}
}

// TestRunTorusDeterministic pins bit-reproducibility of every arm's
// simulated time, and that the placement timer the benchmark module reads
// (experiment.torus_place_ms) is filled in.
func TestRunTorusDeterministic(t *testing.T) {
	cfg := torusCfg([]int{4, 4}, 42)
	for _, arm := range torusArms {
		mode := arm.name
		a, err := RunTorus(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunTorus(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seconds != b.Seconds {
			t.Errorf("%s not deterministic: %v vs %v", mode, a.Seconds, b.Seconds)
		}
		if a.WallSeconds <= 0 {
			t.Errorf("%s: placement timer reads %v, want > 0", mode, a.WallSeconds)
		}
	}
}

// TestTorusScrambleMatters pins the scenario's premise: with the scramble
// disabled (identity layout) the positional order is already
// adjacency-optimal and the tree-matched arm runs faster than its own
// scrambled configuration — the gap the distance matcher recovers.
func TestTorusScrambleMatters(t *testing.T) {
	cfg := torusCfg([]int{4, 4}, 7)
	scrambled, err := RunTorus("tree-matched", cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Scramble = -1
	identity, err := RunTorus("tree-matched", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if identity.Seconds >= scrambled.Seconds {
		t.Errorf("identity layout %vs not below scrambled %vs; the scramble is not doing its job",
			identity.Seconds, scrambled.Seconds)
	}
}

// TestTorusValidation holds one row per check of the torus scenario
// builder and of the stencil it builds.
func TestTorusValidation(t *testing.T) {
	with := func(change func(*TorusConfig)) TorusConfig {
		c := torusCfg([]int{4, 4}, 7)
		change(&c)
		return c
	}
	cases := []struct {
		name string
		cfg  TorusConfig
		ok   bool
	}{
		{"4x4", torusCfg([]int{4, 4}, 7), true},
		{"3-D", torusCfg([]int{2, 2, 4}, 7), true},
		{"degenerate dim", torusCfg([]int{1, 4}, 7), false},
		{"too small", torusCfg([]int{2}, 7), false},
		{"no dims", torusCfg(nil, 7), false},
		{"one-core nodes", with(func(c *TorusConfig) { c.CoresPerNode, c.CoresPerSocket = 1, 1 }), false},
		{"indivisible sockets", with(func(c *TorusConfig) { c.CoresPerNode = 6 }), false},
		{"zero iters", with(func(c *TorusConfig) { c.Iters = 0 }), false},
	}
	for _, tc := range cases {
		_, err := RunTorus("rr", tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if _, err := RunTorus("bogus", torusCfg([]int{4, 4}, 7)); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestTorusConfigFrom pins the shape derivation from the common ablation
// Config.
func TestTorusConfigFrom(t *testing.T) {
	cfg := torusConfigFrom(Config{Cores: 192})
	s, err := cfg.scenario()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.stencil.sizes) * cfg.CoresPerNode; got != 192 {
		t.Errorf("192-core request produced %d cores", got)
	}
	small := torusConfigFrom(Config{Cores: 8})
	if small.CoresPerNode < 2 {
		t.Errorf("small request produced %d cores per node, need >= 2 for the stencil", small.CoresPerNode)
	}
	if _, err := small.scenario(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
