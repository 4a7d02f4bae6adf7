package experiment

import (
	"strings"
	"testing"

	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// testHeteroCfg is the 2-pod, 2-racks-per-pod shape of the hetero tests.
func testHeteroCfg() HeteroConfig {
	return HeteroConfig{Pods: 2, RacksPerPod: 2, Iters: 20, Seed: 7}
}

func TestHeteroPlatformShape(t *testing.T) {
	s, err := testHeteroCfg().scenario()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := HeteroPlatform(testHeteroCfg())
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
	if !strings.Contains(s.spec, "node:2{") {
		t.Errorf("platform spec %q lost the per-member braces", s.spec)
	}
}

// TestAblationHetero asserts the A11 acceptance property: on the
// heterogeneous three-switch-level platform, capacity-aware depth-aware
// placement strictly beats the capacity-blind variant, which strictly beats
// the depth-blind one.
func TestAblationHetero(t *testing.T) {
	rows, err := AblationHetero(testHeteroCfg())
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
	s, err := testHeteroCfg().scenario()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := s.platform()
	if err != nil {
		t.Fatal(err)
	}
	mach := platform.Machine()
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 1})
	if _, err := s.stencil.build(rt); err != nil {
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
	sizes := s.stencil.sizes
	nodeOfBlock := make([]int, len(sizes))
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
		if na.Ancestor(topology.Pod) == np.Ancestor(topology.Pod) {
			t.Errorf("depth-blind pair blocks %d/%d unexpectedly share a pod", b, p)
		}
	}
}

// TestHeteroConfigValidate holds one row per check of the hetero scenario
// builder and of the stencil it builds.
func TestHeteroConfigValidate(t *testing.T) {
	for _, cfg := range []HeteroConfig{
		{Pods: 1, RacksPerPod: 2, Iters: 20},
		{Pods: 3, RacksPerPod: 2, Iters: 20},
		{Pods: 2, RacksPerPod: 0, Iters: 20},
		{Pods: 2, RacksPerPod: 2, Iters: 0},
	} {
		if _, err := RunHetero("aware", cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := testHeteroCfg().scenario(); err != nil {
		t.Errorf("test config rejected: %v", err)
	}
}

func TestHeteroConfigFrom(t *testing.T) {
	cfg := HeteroConfigFrom(Config{Rows: 4096, Cols: 4096, Iters: 10, Cores: 48, Seed: 3})
	if cfg.Pods != 2 || cfg.RacksPerPod != 2 || cfg.Iters != 20 {
		t.Errorf("HeteroConfigFrom(48 cores) = %d pods x %d racks, %d iterations, want 2x2, 20", cfg.Pods, cfg.RacksPerPod, cfg.Iters)
	}
	if _, err := cfg.scenario(); err != nil {
		t.Errorf("derived config invalid: %v", err)
	}
}
