package experiment

import "testing"

func testShiftCfg() ShiftConfig {
	return ShiftConfig{RackConfig: RackConfig{Seed: 42}}
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
	shapes := map[string]ShiftConfig{
		"2x2x8":  testShiftCfg(),
		"4x2x8":  {RackConfig: RackConfig{Racks: 4, Seed: 42}},
		"2x3x8":  {RackConfig: RackConfig{NodesPerRack: 3, Seed: 42}},
		"2x2x12": {RackConfig: RackConfig{CoresPerNode: 12, CoresPerSocket: 6, Seed: 42}},
	}
	for name, cfg := range shapes {
		var prev map[string]float64
		for _, seed := range []int64{42, 7} {
			cfg.Seed = seed
			rows, err := AblationShift(cfg)
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
	res, err := runShift(armNamed(t, shiftArms, "adaptive-fabric"), testShiftCfg().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
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
	cfg := testShiftCfg()
	cfg.Racks, cfg.NodesPerRack = 2, 2
	cfg.CoresPerNode, cfg.CoresPerSocket = 12, 12
	res, err := runShift(armNamed(t, shiftArms, "adaptive-fabric"), cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
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
		a, err := runShift(arm.policy, testShiftCfg().withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		b, err := runShift(arm.policy, testShiftCfg().withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		if a.Seconds != b.Seconds || a.Stats != b.Stats {
			t.Errorf("%s not deterministic: %v/%+v vs %v/%+v", mode, a.Seconds, a.Stats, b.Seconds, b.Stats)
		}
	}
}

// TestShiftValidation exercises the config error paths.
func TestShiftValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  ShiftConfig
		ok   bool
	}{
		{"defaults", ShiftConfig{}, true},
		{"one rack", ShiftConfig{RackConfig: RackConfig{Racks: 1}}, false},
		{"odd blocks", ShiftConfig{RackConfig: RackConfig{Racks: 3, NodesPerRack: 1}}, false},
		{"two blocks", ShiftConfig{RackConfig: RackConfig{Racks: 2, NodesPerRack: 1}}, false},
		{"indivisible sockets", ShiftConfig{RackConfig: RackConfig{CoresPerNode: 10, CoresPerSocket: 4}}, false},
		{"one-core nodes", ShiftConfig{RackConfig: RackConfig{CoresPerNode: 1, CoresPerSocket: 1}}, false},
		{"shift after end", ShiftConfig{RackConfig: RackConfig{Iters: 10}, ShiftAt: 10}, false},
		{"negative pair volume", ShiftConfig{RackConfig: RackConfig{PairBytes: -1}}, false},
		{"negative link volume", ShiftConfig{RackConfig: RackConfig{LinkBytes: -1}}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
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
// the 4-block minimum both pairings need.
func TestShiftConfigFrom(t *testing.T) {
	cfg := ShiftConfigFrom(Config{Cores: 48})
	if cfg.Racks != 2 || cfg.NodesPerRack != 3 || cfg.CoresPerNode != 8 {
		t.Errorf("48 cores derived %+v, want 2 racks x 3 nodes x 8 cores", cfg)
	}
	small := ShiftConfigFrom(Config{Cores: 8})
	if small.NodesPerRack != 2 {
		t.Errorf("8 cores derived %+v, want the 2-node floor per rack", small)
	}
	if err := small.Validate(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
