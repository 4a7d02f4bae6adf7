package experiment

import (
	"testing"
)

// TestAblationTorus asserts the A13 ordering — routed distance matching
// with the space-filling-curve seed beats the balanced-tree-only matcher
// (which skips shaped fabrics and inherits the scramble), which beats
// round-robin — on two torus shapes and two scheduler seeds, both
// relations strict.
func TestAblationTorus(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {2, 2, 4}} {
		for _, seed := range []int64{7, 42} {
			cfg := TorusConfig{Dims: dims, Seed: seed}
			rows, err := AblationTorus(cfg)
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
	cfg := TorusConfig{Seed: 42}
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
	scrambled, err := RunTorus("tree-matched", TorusConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	identity, err := RunTorus("tree-matched", TorusConfig{Seed: 7, Scramble: -1})
	if err != nil {
		t.Fatal(err)
	}
	if identity.Seconds >= scrambled.Seconds {
		t.Errorf("identity layout %vs not below scrambled %vs; the scramble is not doing its job",
			identity.Seconds, scrambled.Seconds)
	}
}

// TestTorusValidation exercises the config error paths.
func TestTorusValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  TorusConfig
		ok   bool
	}{
		{"defaults", TorusConfig{}, true},
		{"3-D", TorusConfig{Dims: []int{2, 2, 4}}, true},
		{"degenerate dim", TorusConfig{Dims: []int{1, 4}}, false},
		{"too small", TorusConfig{Dims: []int{2}}, false},
		{"one-core nodes", TorusConfig{CoresPerNode: 1, CoresPerSocket: 1}, false},
		{"indivisible sockets", TorusConfig{CoresPerNode: 6, CoresPerSocket: 4}, false},
		{"negative volume", TorusConfig{WireBytes: -1}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
	if _, err := RunTorus("bogus", TorusConfig{}); err == nil {
		t.Error("unknown mode accepted")
	}
}

// TestTorusConfigFrom pins the shape derivation from the common ablation
// Config.
func TestTorusConfigFrom(t *testing.T) {
	cfg := TorusConfigFrom(Config{Cores: 192})
	if got := cfg.cells() * cfg.CoresPerNode; got != 192 {
		t.Errorf("192-core request produced %d cores", got)
	}
	small := TorusConfigFrom(Config{Cores: 8})
	if small.CoresPerNode < 2 {
		t.Errorf("small request produced %d cores per node, need >= 2 for the stencil", small.CoresPerNode)
	}
	if err := small.Validate(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
