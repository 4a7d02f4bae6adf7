package experiment

import (
	"testing"
)

// testRackCfg is the reduced scale of the rack tests: 2 racks × 2 nodes of 8
// cores keep runtimes in milliseconds.
func testRackCfg() RackConfig {
	return RackConfig{Racks: 2, NodesPerRack: 2, CoresPerNode: 8, CoresPerSocket: 4, Iters: 10, Seed: 42}
}

// rackCfg is testRackCfg with one change applied.
func rackCfg(change func(*RackConfig)) RackConfig {
	c := testRackCfg()
	change(&c)
	return c
}

// TestRackConfigValidate holds one row per check of the rack scenario
// builder and of the stencil it builds.
func TestRackConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     RackConfig
		wantErr bool
	}{
		{"reduced", testRackCfg(), false},
		{"one rack", rackCfg(func(c *RackConfig) { c.Racks = 1 }), true},
		{"no nodes", rackCfg(func(c *RackConfig) { c.NodesPerRack = 0 }), true},
		{"odd blocks", rackCfg(func(c *RackConfig) { c.Racks, c.NodesPerRack = 3, 1 }), true},
		{"indivisible sockets", rackCfg(func(c *RackConfig) { c.CoresPerNode = 10 }), true},
		{"zero iters", rackCfg(func(c *RackConfig) { c.Iters = 0 }), true},
	}
	for _, tc := range tests {
		if _, err := RunRack("rack-aware", tc.cfg); (err != nil) != tc.wantErr {
			t.Errorf("%s: RunRack = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestRunRackUnknownMode(t *testing.T) {
	if _, err := RunRack("nope", testRackCfg()); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestAblationRack is the A10 acceptance property: on the rack-skewed
// stencil, fabric-aware three-level placement strictly beats the
// fabric-blind hierarchical variant, which strictly beats flat TreeMatch on
// the whole cluster tree. Asserted on the 2×2 shape, on 4 racks of
// 2 nodes, and on the 2×3 shape cmd/ablate derives from its 48-core
// default.
func TestAblationRack(t *testing.T) {
	shapes := map[string]RackConfig{
		"2x2x8": testRackCfg(),
		"4x2x8": rackCfg(func(c *RackConfig) { c.Racks = 4 }),
		"2x3x8": rackCfg(func(c *RackConfig) { c.NodesPerRack = 3 }),
	}
	for name, cfg := range shapes {
		rows, err := rackRows(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) != len(rackArms) {
			t.Fatalf("%s: %d rows, want %d", name, len(rows), len(rackArms))
		}
		byName := map[string]float64{}
		for _, r := range rows {
			byName[r.Name] = r.Seconds
		}
		aware := byName["rack/rack-aware"]
		blind := byName["rack/rack-blind"]
		flat := byName["rack/flat"]
		if aware <= 0 || blind <= 0 || flat <= 0 {
			t.Fatalf("%s: missing rows: %+v", name, rows)
		}
		if !(aware < blind) {
			t.Errorf("%s: fabric-aware %.6fs not strictly below fabric-blind %.6fs", name, aware, blind)
		}
		if !(blind < flat) {
			t.Errorf("%s: fabric-blind %.6fs not strictly below flat treematch %.6fs", name, blind, flat)
		}
	}
}

// TestRunRackDeterministic pins bit-reproducibility of every arm.
func TestRunRackDeterministic(t *testing.T) {
	cfg := testRackCfg()
	for _, arm := range rackArms {
		mode := arm.name
		a, err := RunRack(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunRack(mode, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a.Seconds != b.Seconds {
			t.Errorf("%s not deterministic: %.9f vs %.9f", mode, a.Seconds, b.Seconds)
		}
	}
}

// TestRackClusterShape checks the simulated fabric the scenario builds: the
// rack tier exists and the uplink is an oversubscribed NIC-class trunk.
func TestRackClusterShape(t *testing.T) {
	c, err := RackCluster(testRackCfg())
	if err != nil {
		t.Fatal(err)
	}
	g := c.Machine().FabricGraph()
	if racks := c.Machine().Topology().NumRacks(); racks != 2 || c.Nodes() != 4 {
		t.Fatalf("shape: %d racks, %d nodes", racks, c.Nodes())
	}
	if c.NodeCores(0) != 8 {
		t.Fatalf("node 0 has %d cores, want 8", c.NodeCores(0))
	}
	nic, uplink := g.Edges()[g.LevelEdges(0)[0]], g.Edges()[g.LevelEdges(1)[0]]
	if uplink.BandwidthBytesPerSec != nic.BandwidthBytesPerSec {
		t.Errorf("uplink bandwidth %.3g, want the oversubscribed NIC-class %.3g",
			uplink.BandwidthBytesPerSec, nic.BandwidthBytesPerSec)
	}
}

// TestRackConfigFrom pins the shape derivation used by cmd/ablate.
func TestRackConfigFrom(t *testing.T) {
	cfg := rackConfigFrom(Config{Rows: 4096, Cols: 4096, Iters: 10, Cores: 48, Seed: 7})
	if cfg.Racks != 2 || cfg.NodesPerRack != 3 || cfg.CoresPerNode != 8 || cfg.Iters != 20 {
		t.Errorf("48 cores → %dx%dx%d, %d iterations, want 2x3x8, 20", cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode, cfg.Iters)
	}
	small := rackConfigFrom(Config{Rows: 1024, Cols: 1024, Iters: 1, Cores: 8, Seed: 7})
	if small.NodesPerRack != 1 {
		t.Errorf("8 cores → %d nodes per rack, want the 1-node floor", small.NodesPerRack)
	}
}
