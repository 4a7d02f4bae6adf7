package experiment

import (
	"testing"

	"repro/internal/orwl"
	"repro/internal/placement"
)

// testClusterCfg is the reduced scale used by the cluster tests: nodes of
// 8 cores keep runtimes in milliseconds.
func testClusterCfg(nodes int) ClusterConfig {
	return ClusterConfig{
		Nodes:          nodes,
		CoresPerNode:   8,
		CoresPerSocket: 4,
		Seed:           42,
	}
}

// TestClusterConfigValidate holds one row per check of the cluster
// scenario builder.
func TestClusterConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     ClusterConfig
		wantErr bool
	}{
		{"two nodes", testClusterCfg(2), false},
		{"one node", ClusterConfig{Nodes: 1, CoresPerNode: 8, CoresPerSocket: 4}, true},
		{"indivisible sockets", ClusterConfig{Nodes: 2, CoresPerNode: 10, CoresPerSocket: 4}, true},
		{"no sockets", ClusterConfig{Nodes: 2, CoresPerNode: 8}, true},
	}
	for _, tc := range tests {
		if _, err := tc.cfg.scenario(); (err != nil) != tc.wantErr {
			t.Errorf("%s: scenario() = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestRunClusterUnknownMode(t *testing.T) {
	if _, err := armPolicy("cluster", clusterArms, "nope"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestAblationCluster is the A9 acceptance property: hierarchical placement
// beats round-robin across nodes on makespan and is never worse than flat
// TreeMatch on the cluster tree, with a strict win over flat on the 2-node
// shape. On the 4-node reduced shape both policies find the same provably
// blocky optimum (the partition portfolio's balance-aware selection and
// flat's bottom-up grouping converge to identical placements), so under the
// per-link fabric contention model — which no longer throttles every
// crossing stream by the machine-wide total — the arms tie exactly there;
// equality of identical placements is the expected outcome, not a
// regression.
func TestAblationCluster(t *testing.T) {
	for _, nodes := range []int{2, 4} {
		rows, err := AblationCluster(testClusterCfg(nodes))
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(clusterArms) {
			t.Fatalf("%d rows, want %d", len(rows), len(clusterArms))
		}
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r.Name] = r.Seconds
		}
		hier := byName["cluster/hierarchical"]
		if hier <= 0 {
			t.Fatalf("nodes=%d: missing hierarchical row: %+v", nodes, rows)
		}
		if flat := byName["cluster/flat"]; hier > flat {
			t.Errorf("nodes=%d: hierarchical %.6fs worse than flat treematch %.6fs", nodes, hier, flat)
		} else if nodes == 2 && hier >= flat {
			t.Errorf("nodes=2: hierarchical %.6fs not strictly below flat treematch %.6fs", hier, flat)
		}
		if rr := byName["cluster/rr-nodes"]; hier >= rr {
			t.Errorf("nodes=%d: hierarchical %.6fs not below rr-nodes %.6fs", nodes, hier, rr)
		}
		// The fabric-free single machine bounds every clustered arm from
		// below: distribution is never free.
		if big := byName["cluster/bignode"]; big >= hier {
			t.Errorf("nodes=%d: bignode %.6fs not below hierarchical %.6fs", nodes, big, hier)
		}
	}
}

func TestRunClusterDeterministic(t *testing.T) {
	s, err := testClusterCfg(2).scenario()
	if err != nil {
		t.Fatal(err)
	}
	for _, arm := range clusterArms {
		mode := arm.name
		a, err := s.run(arm.policy)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.run(arm.policy)
		if err != nil {
			t.Fatal(err)
		}
		if a.seconds != b.seconds {
			t.Errorf("%s not deterministic: %.9f vs %.9f", mode, a.seconds, b.seconds)
		}
	}
}

// TestClusterAdaptive runs the epoch-based adaptive engine with the
// hierarchical base policy on the multi-node stencil: the engine must work
// end to end on a clustered machine, and — because the initial hierarchical
// placement is already matched to the stationary pattern and inter-node
// migrations are priced over the fabric — hysteresis must keep it from
// thrashing.
func TestClusterAdaptive(t *testing.T) {
	s, err := testClusterCfg(2).scenario()
	if err != nil {
		t.Fatal(err)
	}
	c, err := s.platform()
	if err != nil {
		t.Fatal(err)
	}
	rt := orwl.NewRuntime(orwl.Options{Machine: c.Machine(), Seed: s.seed})
	if _, err := s.stencil.build(rt); err != nil {
		t.Fatal(err)
	}
	eng, err := placement.PlaceAdaptive(rt, placement.AdaptiveOptions{
		Base:       placement.Hierarchical{},
		EpochIters: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Epochs == 0 {
		t.Fatal("adaptive engine saw no epochs")
	}
	if st.Rebinds != 0 {
		t.Errorf("stationary cluster stencil triggered %d rebinds; hysteresis should hold the hierarchical placement", st.Rebinds)
	}
}
