package numasim

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

// rackCluster builds 2 racks × 2 nodes of 4 cores for the fabric tests.
func rackCluster(t *testing.T) *Platform {
	t.Helper()
	c, err := NewPlatform("rack:2 cluster:2 pack:1 core:4 pu:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// levelStreams builds the per-edge count slice that declares counts[l][g]
// crossing streams on link g of tree-fabric level l (level 0 the NICs,
// level 1 the rack uplinks, level 2 the pod uplinks).
func levelStreams(m *Machine, counts ...[]int) []int {
	g := m.FabricGraph()
	out := make([]int, g.NumEdges())
	for l, level := range counts {
		for i, e := range g.LevelEdges(l) {
			out[e] = level[i]
		}
	}
	return out
}

func TestNewClusterRacks(t *testing.T) {
	c := rackCluster(t)
	topo := c.Machine().Topology()
	if topo.NumRacks() != 2 || topo.NumClusterNodes() != 4 {
		t.Fatalf("fused shape: %d racks, %d nodes", topo.NumRacks(), topo.NumClusterNodes())
	}
	for node, wantRack := range []int{0, 0, 1, 1} {
		if got := c.Machine().RackOfClusterNode(node); got != wantRack {
			t.Errorf("RackOfClusterNode(%d) = %d, want %d", node, got, wantRack)
		}
	}
	if c.Machine().SameRack(0, 2) {
		t.Error("nodes 0 and 2 must be in different racks")
	}
	if !c.Machine().SameRack(2, 3) {
		t.Error("nodes 2 and 3 must share rack 1")
	}
}

// TestNewClusterRacksIndivisible: three nodes do not split evenly across two
// racks, so the uneven split has to be spelled out per rack; a per-rack list
// that does not match the rack count is rejected.
func TestNewClusterRacksIndivisible(t *testing.T) {
	if _, err := NewPlatform("rack:2 node:1,2 core:4", Config{}); err != nil {
		t.Fatalf("explicit uneven split rejected: %v", err)
	}
	_, err := NewPlatform("rack:2 node:1,1,1 core:4", Config{})
	if err == nil || !strings.Contains(err.Error(), "platform spec") {
		t.Fatalf("three per-rack counts for two racks accepted: %v", err)
	}
}

func TestClusterFromSpecRackTier(t *testing.T) {
	c, err := NewPlatformAttrs("rack:2 node:2 pack:1 core:4", topology.DefaultAttrs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if racks := c.Machine().Topology().NumRacks(); racks != 2 || c.Nodes() != 4 {
		t.Fatalf("shape: %d racks, %d nodes", racks, c.Nodes())
	}
	if got := len(c.Machine().Topology().FabricLevels()); got != 2 {
		t.Errorf("%d fabric levels, want 2 (NICs and rack uplinks)", got)
	}
}

// TestFabricHopPathPricing: a lock handoff between racks pays both NIC links
// and both uplinks, one within a rack only the NIC links — so the cross-rack
// transfer is strictly more expensive, and the flat-fabric price is
// unchanged from a rackless cluster of the same nodes.
func TestFabricHopPathPricing(t *testing.T) {
	c := rackCluster(t)
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 4
	const bytes = 1 << 20
	intraNode := m.TransferCost(0, 1, bytes)         // same machine
	intraRack := m.TransferCost(0, perNode, bytes)   // node 0 → node 1
	crossRack := m.TransferCost(0, 2*perNode, bytes) // node 0 → node 2
	if !(intraNode < intraRack && intraRack < crossRack) {
		t.Fatalf("want intra-node %.0f < intra-rack %.0f < cross-rack %.0f cycles",
			intraNode, intraRack, crossRack)
	}
	// The latency difference is exactly the two uplink traversals (bandwidth
	// terms match while the uplink is not the bottleneck).
	def := topology.DefaultAttrs()
	wantDelta := 2 * def.UplinkLatencyCycles
	if got := crossRack - intraRack; got != wantDelta {
		t.Errorf("cross-rack surcharge = %.0f cycles, want %.0f (two uplinks)", got, wantDelta)
	}

	// A flat 4-node cluster prices the same node pair like the intra-rack
	// path: racks only add cost where a rack boundary is crossed.
	flat, err := NewPlatform("cluster:4 pack:1 core:4 pu:1", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := flat.Machine().TransferCost(0, 2*perNode, bytes); got != intraRack {
		t.Errorf("flat-fabric transfer = %.0f cycles, want %.0f (two NIC links)", got, intraRack)
	}
}

// TestPerLinkFabricContention: with per-link stream counts, a transfer is
// capped by the most contended link on its path. Funneling all streams
// through one node's NIC throttles transfers to that node but leaves other
// paths at full speed — the property that rewards balanced partitions.
func TestPerLinkFabricContention(t *testing.T) {
	c := rackCluster(t)
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 4
	const bytes = 8 << 20

	free := m.TransferCost(0, perNode, bytes)

	// 8 streams all hitting node 1's NIC; nodes 0/2/3 uncontended.
	m.Declare(Contention{Edges: levelStreams(m, []int{1, 8, 1, 1}, []int{1, 1})})
	hot := m.TransferCost(0, perNode, bytes)            // into the hot NIC
	cold := m.TransferCost(2*perNode, 3*perNode, bytes) // rack 1, both NICs cold
	if hot <= free {
		t.Errorf("transfer into contended NIC (%.0f) not above uncontended (%.0f)", hot, free)
	}
	if cold != free {
		t.Errorf("transfer on uncontended path = %.0f, want %.0f (per-link isolation)", cold, free)
	}

	// Uplink contention throttles only rack-crossing transfers.
	m.Declare(Contention{Edges: levelStreams(m, []int{1, 1, 1, 1}, []int{8, 8})})
	intra := m.TransferCost(0, perNode, bytes)
	cross := m.TransferCost(0, 2*perNode, bytes)
	if intra != free {
		t.Errorf("intra-rack transfer pays uplink contention: %.0f vs %.0f", intra, free)
	}
	crossFree := free + 2*topology.DefaultAttrs().UplinkLatencyCycles
	if cross <= crossFree {
		t.Errorf("cross-rack transfer under uplink contention = %.0f, want above %.0f", cross, crossFree)
	}

	// Clearing the counts restores the uncontended fabric.
	m.Declare(Contention{})
	if got := m.TransferCost(0, perNode, bytes); got != free {
		t.Errorf("after reset transfer = %.0f, want %.0f", got, free)
	}
}

// TestFabricLinkStreamsRevert: Contention reads back the declared per-edge
// counts, and declaring nil edges restores the uncontended price and a nil
// reading.
func TestFabricLinkStreamsRevert(t *testing.T) {
	c := rackCluster(t)
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 4
	const bytes = 4 << 20

	free := m.TransferCost(0, perNode, bytes)
	nicOf2 := m.FabricGraph().LevelEdges(0)[2]
	counts := levelStreams(m, []int{6, 6, 6, 6}, []int{6, 6})
	m.Declare(Contention{Edges: counts})
	counts[nicOf2] = 1               // Declare keeps its own copy
	m.Contention().Edges[nicOf2] = 1 // and each read is the caller's
	if got := m.Contention().Edges[nicOf2]; got != 6 {
		t.Errorf("Edges[node 2's NIC] = %d, want the declared 6", got)
	}
	if got := m.TransferCost(0, perNode, bytes); got <= free {
		t.Fatalf("6-stream transfer %.0f not above the uncontended %.0f", got, free)
	}
	m.Declare(Contention{})
	if got := m.Contention().Edges; got != nil {
		t.Errorf("Edges after clearing = %v, want nil", got)
	}
	if got := m.TransferCost(0, perNode, bytes); got != free {
		t.Errorf("transfer after clearing = %.0f, want the uncontended %.0f", got, free)
	}
}
