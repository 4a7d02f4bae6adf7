package numasim

import (
	"testing"

	"repro/internal/topology"
)

// TestPlatformUnevenRacks is the regression test for the uneven-fabric
// rejection: "rack:2 node:2,3 ..." used to parse and then be refused with
// "uneven fabric level not supported"; the platform path must build a
// working simulation machine from it, with or without attribute overrides.
func TestPlatformUnevenRacks(t *testing.T) {
	for _, build := range []struct {
		name string
		make func() (*Platform, error)
	}{
		{"NewPlatform", func() (*Platform, error) {
			return NewPlatform("rack:2 node:2,3 pack:1 core:4", Config{})
		}},
		{"NewPlatformAttrs", func() (*Platform, error) {
			return NewPlatformAttrs("rack:2 node:2,3 pack:1 core:4", topology.DefaultAttrs(), Config{})
		}},
	} {
		p, err := build.make()
		if err != nil {
			t.Fatalf("%s: uneven racks rejected: %v", build.name, err)
		}
		if p.Nodes() != 5 {
			t.Fatalf("%s: %d nodes, want 5", build.name, p.Nodes())
		}
		mach := p.Machine()
		if got := mach.Topology().NumRacks(); got != 2 {
			t.Fatalf("%s: %d racks, want 2", build.name, got)
		}
		// Rack 0 holds nodes 0-1, rack 1 holds nodes 2-4.
		wantRack := []int{0, 0, 1, 1, 1}
		for c, want := range wantRack {
			if got := mach.RackOfClusterNode(c); got != want {
				t.Errorf("%s: node %d in rack %d, want %d", build.name, c, got, want)
			}
		}
		// The fabric prices: same-rack transfers cost two NIC links, cross-
		// rack transfers add the uplinks.
		sameRack := mach.TransferCost(0, 4, 1024)   // node 0 -> node 1
		crossRack := mach.TransferCost(0, 12, 1024) // node 0 -> node 3
		if !(sameRack > 0 && crossRack > sameRack) {
			t.Errorf("%s: fabric pricing: same-rack %.0f, cross-rack %.0f", build.name, sameRack, crossRack)
		}
	}
}

func TestPlatformHeterogeneousMembers(t *testing.T) {
	p, err := NewPlatform("rack:2 node:{pack:2 core:8 | pack:1 core:4}", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Nodes() != 2 {
		t.Fatalf("nodes=%d, want 2", p.Nodes())
	}
	if p.NodeCores(0) != 16 || p.NodeCores(1) != 4 {
		t.Errorf("node cores %d/%d, want 16/4", p.NodeCores(0), p.NodeCores(1))
	}
	if got := p.Machine().Topology().NumCores(); got != 20 {
		t.Errorf("fused machine has %d cores, want 20", got)
	}
}

// TestNewClusterWrapperMatchesPlatform: the "cluster" spelling of the node
// tier under explicit default attributes builds the same platform as the
// "node" spelling under NewPlatform's defaults.
func TestNewClusterWrapperMatchesPlatform(t *testing.T) {
	viaWrapper, err := NewPlatformAttrs("rack:2 cluster:2 pack:1 core:4", topology.DefaultAttrs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	viaSpec, err := NewPlatform("rack:2 node:2 pack:1 core:4", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if viaWrapper.Machine().Topology().Spec() != viaSpec.Machine().Topology().Spec() {
		t.Errorf("cluster-spelled spec %q != node-spelled spec %q",
			viaWrapper.Machine().Topology().Spec(), viaSpec.Machine().Topology().Spec())
	}
	// Identical pricing on an identical sample path.
	for _, pu := range []int{4, 8, 12} {
		w := viaWrapper.Machine().TransferCost(0, pu, 4096)
		s := viaSpec.Machine().TransferCost(0, pu, 4096)
		if w != s {
			t.Errorf("TransferCost(0,%d) cluster-spelled %.2f != node-spelled %.2f", pu, w, s)
		}
	}
}

// TestPodFabricPricing pins the three latency regimes of a pod fabric: the
// hop path accumulates NIC links inside a rack, adds rack uplinks across
// racks, and pod uplinks across pods.
func TestPodFabricPricing(t *testing.T) {
	p, err := NewPlatform("pod:2 rack:2 node:2 pack:1 core:2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine()
	def := topology.DefaultAttrs()
	// PUs per node: 2. Node 0 PUs 0-1; node 1 PUs 2-3 (same rack); node 2
	// PUs 4-5 (same pod, other rack); node 4 PUs 8-9 (other pod). One byte
	// per probe: the NIC is the bandwidth bottleneck of every path (the
	// uplinks are wider by default), so cost differences are pure per-link
	// latency.
	bytes := 1.0
	sameRack := mach.TransferCost(0, 2, bytes)
	crossRack := mach.TransferCost(0, 4, bytes)
	crossPod := mach.TransferCost(0, 8, bytes)
	wantSame := 2 * def.NetLatencyCycles
	wantRack := wantSame + 2*def.UplinkLatencyCycles
	wantPod := wantRack + 2*def.PodUplinkLatencyCycles
	if diff := sameRack - crossRack; diff >= 0 {
		t.Errorf("same-rack %.0f not cheaper than cross-rack %.0f", sameRack, crossRack)
	}
	if diff := crossRack - crossPod; diff >= 0 {
		t.Errorf("cross-rack %.0f not cheaper than cross-pod %.0f", crossRack, crossPod)
	}
	near := func(a, b float64) bool { d := a - b; return d < 1e-6 && d > -1e-6 }
	if got := crossRack - sameRack; !near(got, wantRack-wantSame) {
		t.Errorf("rack uplink surcharge %.0f cycles, want %.0f", got, wantRack-wantSame)
	}
	if got := crossPod - crossRack; !near(got, wantPod-wantRack) {
		t.Errorf("pod uplink surcharge %.0f cycles, want %.0f", got, wantPod-wantRack)
	}
}

// TestSetLinkStreamsValidation: a stream-count slice that does not cover
// every fabric edge panics instead of zero-filling the missing links, and so
// does declaring counts on a machine without a fabric.
func TestSetLinkStreamsValidation(t *testing.T) {
	p, err := NewPlatform("rack:2 node:2 pack:1 core:2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := p.Machine() // 4 NICs + 2 uplinks
	single, err := NewPlatform("pack:1 core:2", Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		m *Machine
		c Contention
	}{
		{mach, Contention{Edges: []int{1, 1, 1, 1}}},          // NICs only
		{mach, Contention{Edges: make([]int, 7)}},             // one too many
		{mach, Contention{Edges: []int{}}},                    // empty is not nil
		{mach, Contention{Accessors: []int{1, 1, 1}}},         // one NUMA node short
		{mach, Contention{Accessors: []int{}}},                // empty is not nil
		{single.Machine(), Contention{Edges: make([]int, 1)}}, // no fabric
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mis-sized declaration %+v did not panic", bad.c)
				}
			}()
			bad.m.Declare(bad.c)
		}()
	}
	mach.Declare(Contention{Accessors: make([]int, 4), Edges: make([]int, mach.FabricGraph().NumEdges())})
	single.Machine().Declare(Contention{}) // nil edges: no fabric needed
}

// TestPlatformFusedSpecRoundTrips pins that a platform's own fused spec —
// the normalized form it logs and Topology.Spec() reports — feeds back
// into NewPlatform and rebuilds the same heterogeneous shape.
func TestPlatformFusedSpecRoundTrips(t *testing.T) {
	orig, err := NewPlatform("rack:2 node:{pack:2 core:8 | pack:1 core:4}", Config{})
	if err != nil {
		t.Fatal(err)
	}
	fused := orig.Machine().Topology().Spec()
	again, err := NewPlatform(fused, Config{})
	if err != nil {
		t.Fatalf("fused spec %q does not round-trip: %v", fused, err)
	}
	if again.Nodes() != orig.Nodes() {
		t.Fatalf("round trip of %q: %d nodes, want %d", fused, again.Nodes(), orig.Nodes())
	}
	for i := 0; i < orig.Nodes(); i++ {
		if again.NodeCores(i) != orig.NodeCores(i) {
			t.Errorf("round trip node %d has %d cores, want %d", i, again.NodeCores(i), orig.NodeCores(i))
		}
	}
}

// TestClusterFromSpecRejectsImposedRacksOnHetero: the spec alone shapes the
// fabric, so the rack tier of a heterogeneous member list belongs in the
// spec, and the members keep their own shapes under it.
func TestClusterFromSpecRejectsImposedRacksOnHetero(t *testing.T) {
	racked, err := NewPlatformAttrs("rack:2 node:{pack:2 core:8 | pack:1 core:4}", topology.DefaultAttrs(), Config{})
	if err != nil {
		t.Fatalf("rack tier in spec rejected: %v", err)
	}
	if racks := racked.Machine().Topology().NumRacks(); racks != 2 || racked.NodeCores(0) == racked.NodeCores(1) {
		t.Fatalf("rack tier in spec built %d racks, node cores %d/%d", racks, racked.NodeCores(0), racked.NodeCores(1))
	}
}
