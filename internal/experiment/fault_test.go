package experiment

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// testFaultCfg is the 2×4×8 fault shape at FaultConfigFrom's 30
// iterations, under the default failure.
func testFaultCfg() FaultConfig {
	return FaultConfig{RackConfig: RackConfig{Racks: 2, NodesPerRack: 4, CoresPerNode: 8, CoresPerSocket: 4, Iters: 30, Seed: 42}}
}

// faultCfg is testFaultCfg with one change applied.
func faultCfg(change func(*FaultConfig)) FaultConfig {
	c := testFaultCfg()
	change(&c)
	return c
}

// runFaultArm runs one fault arm on a configuration.
func runFaultArm(t *testing.T, a fabricArm, cfg FaultConfig) programRun {
	t.Helper()
	s, err := cfg.scenario()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.run(a)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAblationFault is the A14 acceptance property: on the rack-skewed
// stencil with a mid-run correlated failure (a node kill plus its rack
// uplink degrading), the fault-aware adaptive engine strictly beats the
// fault-blind one, which strictly beats static-with-respawn, and the
// spread-hardened initial placement also strictly beats static-with-respawn.
// Asserted on the 2×4×8 shape, on 2 racks of 6 nodes, and on
// narrower 4-core nodes, each under two scheduler seeds (every task is
// bound, so the seconds must not depend on the seed at all).
func TestAblationFault(t *testing.T) {
	shapes := map[string]FaultConfig{
		"2x4x8": testFaultCfg(),
		"2x6x8": faultCfg(func(c *FaultConfig) { c.NodesPerRack = 6 }),
		"2x4x4": faultCfg(func(c *FaultConfig) { c.CoresPerNode, c.CoresPerSocket = 4, 2 }),
	}
	for name, cfg := range shapes {
		var prev map[string]float64
		for _, seed := range []int64{42, 7} {
			cfg.Seed = seed
			rows, err := AblationFault(cfg)
			if err != nil {
				t.Fatalf("%s seed=%d: %v", name, seed, err)
			}
			if len(rows) != len(faultArms) {
				t.Fatalf("%s seed=%d: %d rows, want %d", name, seed, len(rows), len(faultArms))
			}
			byName := map[string]float64{}
			for _, r := range rows {
				if r.Seconds <= 0 {
					t.Fatalf("%s seed=%d: %s has non-positive time %v", name, seed, r.Name, r.Seconds)
				}
				byName[r.Name] = r.Seconds
			}
			aware := byName["fault/fault-aware"]
			blind := byName["fault/fault-blind"]
			spread := byName["fault/spread"]
			respawn := byName["fault/static-respawn"]
			if !(aware < blind) {
				t.Errorf("%s seed=%d: fault-aware %.6fs not strictly below fault-blind %.6fs", name, seed, aware, blind)
			}
			if !(blind < respawn) {
				t.Errorf("%s seed=%d: fault-blind %.6fs not strictly below static-respawn %.6fs", name, seed, blind, respawn)
			}
			if !(spread < respawn) {
				t.Errorf("%s seed=%d: spread %.6fs not strictly below static-respawn %.6fs", name, seed, spread, respawn)
			}
			if err := CheckOrderings(rows, AblationOrderings("fault")); err != nil {
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

// TestRunFaultEvacuates pins that the failure really forces the runtime's
// hand in every arm: the fault epoch fires once, a whole node-block of tasks
// is evacuated (one per core of the dead node), the moves are priced, and
// the respawn arm never adapts beyond them.
func TestRunFaultEvacuates(t *testing.T) {
	cfg := testFaultCfg()
	for _, arm := range faultArms {
		mode := arm.name
		st := runFaultArm(t, arm.policy, cfg).stats
		if st.FaultEpochs != 1 {
			t.Errorf("%s: FaultEpochs = %d, want 1", mode, st.FaultEpochs)
		}
		if st.Evacuations != cfg.CoresPerNode {
			t.Errorf("%s: %d evacuations, want the dead node's %d tasks",
				mode, st.Evacuations, cfg.CoresPerNode)
		}
		if st.EvacuationCostCycles <= 0 {
			t.Errorf("%s: evacuations committed unpriced (stats %+v)", mode, st)
		}
		if mode == "static-respawn" && st.Applied != 0 {
			t.Errorf("static-respawn applied %d candidate mappings, want none", st.Applied)
		}
	}
}

// TestRunFaultDeterministic pins bit-reproducibility of every arm.
func TestRunFaultDeterministic(t *testing.T) {
	for _, arm := range faultArms {
		mode := arm.name
		a := runFaultArm(t, arm.policy, testFaultCfg())
		b := runFaultArm(t, arm.policy, testFaultCfg())
		if a.seconds != b.seconds || a.stats != b.stats {
			t.Errorf("%s not deterministic: %v/%+v vs %v/%+v", mode, a.seconds, a.stats, b.seconds, b.stats)
		}
	}
}

// TestFaultValidation holds one row per check the fault scenario adds to
// the rack scenario's (TestRackConfigValidate), plus one rack check
// reaching it.
func TestFaultValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  FaultConfig
		want string
	}{
		{"default failure", testFaultCfg(), ""},
		{"one rack", faultCfg(func(c *FaultConfig) { c.Racks = 1 }), "rack"},
		{"epoch beyond run", faultCfg(func(c *FaultConfig) { c.Iters = fabricEpochIters - 1 }), "beyond the run"},
	}
	for _, tc := range cases {
		_, err := tc.cfg.scenario()
		if tc.want == "" && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.want)
		}
	}
}

// TestBuildFaultSchedule pins the experiment-coordinate resolution: level 1
// link r is rack r's uplink, out-of-range coordinates fail, and the resolved
// schedule passes topology validation.
func TestBuildFaultSchedule(t *testing.T) {
	cluster, err := RackCluster(testRackCfg())
	if err != nil {
		t.Fatal(err)
	}
	topo := cluster.Machine().Topology()
	s, err := BuildFaultSchedule(topo, []FaultEventSpec{
		{Epoch: 1, Kind: topology.FaultKillNode, Node: 2},
		{Epoch: 2, Kind: topology.FaultDegradeEdge, Level: 1, Link: 1, Factor: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 {
		t.Fatalf("%d events, want 2", len(s.Events))
	}
	if want := topo.FabricGraph().LevelEdges(1)[1]; s.Events[1].Edge != want {
		t.Errorf("uplink resolved to edge %d, want %d", s.Events[1].Edge, want)
	}
	if _, err := BuildFaultSchedule(topo, []FaultEventSpec{
		{Epoch: 1, Kind: topology.FaultSeverEdge, Level: 9, Link: 0},
	}); err == nil || !strings.Contains(err.Error(), "fabric level") {
		t.Errorf("bad level accepted (err %v)", err)
	}
	if _, err := BuildFaultSchedule(topo, []FaultEventSpec{
		{Epoch: 1, Kind: topology.FaultSeverEdge, Level: 0, Link: 99},
	}); err == nil || !strings.Contains(err.Error(), "link") {
		t.Errorf("bad link accepted (err %v)", err)
	}
	if s, err := BuildFaultSchedule(topo, nil); s != nil || err != nil {
		t.Errorf("empty specs: got %v, %v; want nil, nil", s, err)
	}
}

// TestFaultConfigFrom pins the shape derivation from the common ablation
// config: 2 racks of 8-core nodes, scaled by the core budget, never below
// the 4-node floor per rack, 30 iterations.
func TestFaultConfigFrom(t *testing.T) {
	cfg := FaultConfigFrom(Config{Cores: 96})
	if cfg.Racks != 2 || cfg.NodesPerRack != 6 || cfg.CoresPerNode != 8 || cfg.Iters != 30 {
		t.Errorf("96 cores derived %+v, want 2 racks x 6 nodes x 8 cores, 30 iterations", cfg)
	}
	small := FaultConfigFrom(Config{Cores: 8})
	if small.NodesPerRack != 4 {
		t.Errorf("8 cores derived %+v, want the 4-node floor per rack", small)
	}
	if _, err := small.scenario(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
