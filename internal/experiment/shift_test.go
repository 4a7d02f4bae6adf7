package experiment

import "testing"

// testShiftCfg is the 2×2×8 shift shape at shiftConfigFrom's 30
// iterations.
func testShiftCfg() RackConfig {
	return RackConfig{Racks: 2, NodesPerRack: 2, CoresPerNode: 8, CoresPerSocket: 4, Iters: 30, Seed: 42}
}

// shiftCfg is testShiftCfg with one change applied.
func shiftCfg(change func(*RackConfig)) RackConfig {
	c := testShiftCfg()
	change(&c)
	return c
}

// runShiftArm runs one shift arm on a configuration.
func runShiftArm(t *testing.T, a fabricArm, cfg RackConfig) programRun {
	t.Helper()
	s, err := shiftScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run(a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAblationShift is the A12 acceptance property: on the rack-crossing
// phase shift, the adaptive engine with fabric-aware (hierarchical)
// candidates strictly beats the fully flat adaptive pipeline, which strictly
// beats the one-shot hierarchical placement, with the free-migration oracle
// bounding everything from below. Asserted on the default 2×2×8 shape, on
// 4 racks of 2 nodes, on 2 racks of 3 nodes, and on 12-core nodes, each
// under two scheduler seeds (every task is bound, so the seconds must not
// depend on the seed at all).
func TestAblationShift(t *testing.T) {
	shapes := map[string]RackConfig{
		"2x2x8":  testShiftCfg(),
		"4x2x8":  shiftCfg(func(c *RackConfig) { c.Racks = 4 }),
		"2x3x8":  shiftCfg(func(c *RackConfig) { c.NodesPerRack = 3 }),
		"2x2x12": shiftCfg(func(c *RackConfig) { c.CoresPerNode, c.CoresPerSocket = 12, 6 }),
	}
	for name, cfg := range shapes {
		var prev map[string]float64
		for _, seed := range []int64{42, 7} {
			cfg.Seed = seed
			rows, err := shiftRows(cfg)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if len(rows) != len(shiftArms) {
				t.Fatalf("%s seed=%d: %d rows, want %d", name, seed, len(rows), len(shiftArms))
			}
			byName := map[string]float64{}
			for _, r := range rows {
				if r.Seconds <= 0 {
					t.Fatalf("%s seed=%d: %s has non-positive time %v", name, seed, r.Name, r.Seconds)
				}
				byName[r.Name] = r.Seconds
			}
			static := byName["shift/static"]
			flat := byName["shift/adaptive-flat"]
			fabric := byName["shift/adaptive-fabric"]
			oracle := byName["shift/oracle"]
			if !(fabric < flat) {
				t.Errorf("%s seed=%d: adaptive-fabric %.6fs not strictly below adaptive-flat %.6fs", name, seed, fabric, flat)
			}
			if !(flat < static) {
				t.Errorf("%s seed=%d: adaptive-flat %.6fs not strictly below static %.6fs", name, seed, flat, static)
			}
			if oracle > fabric {
				t.Errorf("%s seed=%d: oracle %.6fs above adaptive-fabric %.6fs; free migration must bound it", name, seed, oracle, fabric)
			}
			if err := CheckOrderings(rows, AblationOrderings("shift")); err != nil {
				t.Errorf("%s seed=%d: CheckOrderings disagrees with the inline assertions: %v", name, seed, err)
			}
			if prev != nil {
				for arm, sec := range byName {
					if prev[arm] != sec {
						t.Errorf("%s: %s depends on the seed (%v vs %v) although every task is bound", name, arm, prev[arm], sec)
					}
				}
			}
			prev = byName
		}
	}
}

// TestShiftFabricMovesCrossTheFabric pins that the fabric-aware arm's
// recovery really is inter-node migration: the engine commits cross-node
// moves, a subset of them cross-rack, and the modeled migration bill of
// those moves is priced (non-zero) — dead code at cluster scale no more.
func TestShiftFabricMovesCrossTheFabric(t *testing.T) {
	st := runShiftArm(t, armNamed(t, shiftArms, "adaptive-fabric"), testShiftCfg()).stats
	if st.Applied < 1 {
		t.Fatalf("no epoch applied a re-placement (stats %+v)", st)
	}
	if st.CrossNodeRebinds == 0 {
		t.Errorf("no cross-node moves; the shift scenario is not exercising the fabric (stats %+v)", st)
	}
	if st.CrossRackRebinds == 0 {
		t.Errorf("no cross-rack moves; the rack-crossing recovery did not happen (stats %+v)", st)
	}
	if st.CrossRackRebinds > st.CrossNodeRebinds {
		t.Errorf("cross-rack moves %d exceed cross-node moves %d; the classification is inconsistent",
			st.CrossRackRebinds, st.CrossNodeRebinds)
	}
	if got := st.IntraNodeRebinds + st.CrossNodeRebinds; got != st.Rebinds {
		t.Errorf("intra-node %d + cross-node %d != total rebinds %d",
			st.IntraNodeRebinds, st.CrossNodeRebinds, st.Rebinds)
	}
	if st.MigrationCostCycles <= 0 {
		t.Errorf("cross-fabric moves committed with a zero modeled migration bill (stats %+v)", st)
	}
}

// TestShiftNoIntraNodeChurn is the candidate-anchoring regression: on a
// symmetric 2×2×12 platform whose nodes are single-socket — every core of a
// node prices identically against every other, so no intra-node move can buy
// anything — the per-epoch hierarchical candidate used to relabel
// cost-symmetric slots inside a node (swapping two tasks on sibling cores,
// or parking one on an equivalent core), and every such relabeling was
// committed as a real migration. With the candidate anchored against the
// mapping in force, the fabric-aware arm's committed moves are exclusively
// the cross-node recoveries the scenario is about.
func TestShiftNoIntraNodeChurn(t *testing.T) {
	cfg := shiftCfg(func(c *RackConfig) { c.CoresPerNode, c.CoresPerSocket = 12, 12 })
	st := runShiftArm(t, armNamed(t, shiftArms, "adaptive-fabric"), cfg).stats
	if st.Rebinds == 0 {
		t.Fatalf("no moves committed; the witness is not exercising the engine (stats %+v)", st)
	}
	if st.IntraNodeRebinds != 0 {
		t.Errorf("%d intra-node rebinds committed on a cost-symmetric platform, want 0 (stats %+v)",
			st.IntraNodeRebinds, st)
	}
}

// TestRunShiftDeterministic pins bit-reproducibility of every arm.
func TestRunShiftDeterministic(t *testing.T) {
	for _, arm := range shiftArms {
		mode := arm.name
		a := runShiftArm(t, arm.policy, testShiftCfg())
		b := runShiftArm(t, arm.policy, testShiftCfg())
		if a.seconds != b.seconds || a.stats != b.stats {
			t.Errorf("%s not deterministic: %v/%+v vs %v/%+v", mode, a.seconds, a.stats, b.seconds, b.stats)
		}
	}
}

// TestShiftValidation holds one row per check the shift scenario adds to
// the rack scenario's (TestRackConfigValidate), plus one rack check
// reaching it.
func TestShiftValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  RackConfig
		ok   bool
	}{
		{"2x2x8", testShiftCfg(), true},
		{"one rack", shiftCfg(func(c *RackConfig) { c.Racks = 1 }), false},
		{"two blocks", shiftCfg(func(c *RackConfig) { c.NodesPerRack = 1 }), false},
		{"one-core nodes", shiftCfg(func(c *RackConfig) { c.CoresPerNode, c.CoresPerSocket = 1, 1 }), false},
		{"one iteration", shiftCfg(func(c *RackConfig) { c.Iters = 1 }), false},
	}
	for _, tc := range cases {
		_, err := shiftScenario(tc.cfg)
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestShiftConfigFrom pins the shape derivation from the common ablation
// config: 2 racks of 8-core nodes, scaled by the core budget, never below
// the 4-block minimum both pairings need, 30 iterations.
func TestShiftConfigFrom(t *testing.T) {
	cfg := shiftConfigFrom(Config{Cores: 48})
	if cfg.Racks != 2 || cfg.NodesPerRack != 3 || cfg.CoresPerNode != 8 || cfg.Iters != 30 {
		t.Errorf("48 cores derived %+v, want 2 racks x 3 nodes x 8 cores, 30 iterations", cfg)
	}
	small := shiftConfigFrom(Config{Cores: 8})
	if small.NodesPerRack != 2 {
		t.Errorf("8 cores derived %+v, want the 2-node floor per rack", small)
	}
	if _, err := shiftScenario(small); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
