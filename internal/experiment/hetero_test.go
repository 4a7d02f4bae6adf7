package experiment

import (
	"strings"
	"testing"

	"repro/internal/orwl"
	"repro/internal/placement"
)

func TestHeteroPlatformShape(t *testing.T) {
	cfg := HeteroConfig{}
	platform, err := HeteroPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topo := platform.Machine().Topology()
	if platform.Nodes() != 8 || topo.NumPods() != 2 || topo.NumRacks() != 4 {
		t.Fatalf("platform shape nodes=%d pods=%d racks=%d, want 8/2/4",
			platform.Nodes(), topo.NumPods(), topo.NumRacks())
	}
	if got := platform.Machine().Topology().NumCores(); got != 48 {
		t.Fatalf("fused platform has %d cores, want 48", got)
	}
	wantCores := []int{8, 4, 8, 4, 8, 4, 8, 4}
	for i, want := range wantCores {
		if got := platform.NodeCores(i); got != want {
			t.Errorf("node %d has %d cores, want %d", i, got, want)
		}
	}
	if levels := platform.Machine().FabricGraph().NumLevels(); levels != 3 {
		t.Fatalf("%d fabric levels, want 3 (NIC, rack uplink, pod uplink)", levels)
	}
	if !strings.Contains(HeteroPlatformSpec(cfg), "node:2{") {
		t.Errorf("platform spec %q lost the per-member braces", HeteroPlatformSpec(cfg))
	}
}

// TestAblationHetero asserts the A11 acceptance property: on the
// heterogeneous three-switch-level platform, capacity-aware depth-aware
// placement strictly beats the capacity-blind variant, which strictly beats
// the depth-blind one.
func TestAblationHetero(t *testing.T) {
	rows, err := AblationHetero(HeteroConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s reports non-positive time %f", r.Name, r.Seconds)
		}
		byName[r.Name] = r.Seconds
	}
	aware := byName["hetero/aware"]
	capBlind := byName["hetero/capacity-blind"]
	depthBlind := byName["hetero/depth-blind"]
	if !(aware < capBlind) {
		t.Errorf("aware (%.4fs) does not beat capacity-blind (%.4fs)", aware, capBlind)
	}
	if !(capBlind < depthBlind) {
		t.Errorf("capacity-blind (%.4fs) does not beat depth-blind (%.4fs)", capBlind, depthBlind)
	}
}

// TestHeteroAwarePlacement pins the structural properties behind the A11
// numbers: the capacity-weighted partition fills every node to exactly its
// core count (no oversubscription), and the class-constrained fabric
// matching co-locates every big/small pair under one top-of-rack switch.
func TestHeteroAwarePlacement(t *testing.T) {
	cfg := HeteroConfig{}.withDefaults()
	platform, err := HeteroPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mach := platform.Machine()
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 1})
	if err := heteroStencil(cfg).build(rt); err != nil {
		t.Fatal(err)
	}
	m := rt.CommMatrix()
	a, err := placement.Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualArity != 1 {
		t.Errorf("capacity-aware placement oversubscribes (virtual arity %d)", a.VirtualArity)
	}
	perNode := make([]int, platform.Nodes())
	nodeOfBlock := make([]int, len(heteroBlockSizes(cfg)))
	sizes := heteroBlockSizes(cfg)
	taskBlock := make([]int, m.Order())
	{
		i := 0
		for b, sz := range sizes {
			for s := 0; s < sz; s++ {
				taskBlock[i] = b
				i++
			}
		}
	}
	for task, pu := range a.TaskPU {
		node := mach.ClusterNodeOfPU(pu)
		perNode[node]++
		nodeOfBlock[taskBlock[task]] = node
	}
	for n, count := range perNode {
		if count != platform.NodeCores(n) {
			t.Errorf("node %d carries %d tasks for %d cores", n, count, platform.NodeCores(n))
		}
	}
	pair := heteroPairOf(sizes)
	for b, p := range pair {
		if b > p {
			continue
		}
		nb, np := nodeOfBlock[b], nodeOfBlock[p]
		if !mach.SameRack(nb, np) {
			t.Errorf("pair blocks %d/%d placed on nodes %d/%d in different racks", b, p, nb, np)
		}
	}
	// The depth-blind arm leaves every pair across a pod boundary.
	blind, err := placement.Hierarchical{NoFabricMatch: true}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for task, pu := range blind.TaskPU {
		nodeOfBlock[taskBlock[task]] = mach.ClusterNodeOfPU(pu)
	}
	topo := mach.Topology()
	for b, p := range pair {
		if b > p {
			continue
		}
		na, np := topo.ClusterNodes()[nodeOfBlock[b]], topo.ClusterNodes()[nodeOfBlock[p]]
		if topo.SamePod(na, np) {
			t.Errorf("depth-blind pair blocks %d/%d unexpectedly share a pod", b, p)
		}
	}
}

func TestHeteroConfigValidate(t *testing.T) {
	for _, cfg := range []HeteroConfig{
		{Pods: 1},
		{Pods: 3},
		{BigCores: 4, SmallCores: 4},
		{BigCores: 6, CoresPerSocket: 4},
		{Iters: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := (HeteroConfig{}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestHeteroConfigFrom(t *testing.T) {
	cfg := HeteroConfigFrom(Config{Rows: 4096, Cols: 4096, Iters: 10, Cores: 48, Seed: 3})
	if cfg.Pods != 2 || cfg.RacksPerPod != 2 {
		t.Errorf("HeteroConfigFrom(48 cores) = %d pods x %d racks, want 2x2", cfg.Pods, cfg.RacksPerPod)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
