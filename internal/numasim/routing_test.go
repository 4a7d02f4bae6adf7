package numasim

import (
	"testing"

	"repro/internal/topology"
)

func dragonflyMachine(t *testing.T) *Machine {
	t.Helper()
	plat, err := NewPlatform("dragonfly:4,2,2 pack:1 core:2", Config{})
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return plat.Machine()
}

// firstPUOfNode returns the OS index of the first PU on cluster node n.
func firstPUOfNode(m *Machine, n int) int {
	for _, pu := range m.Topology().PUs() {
		if m.ClusterNodeOfPU(pu.OSIndex) == n {
			return pu.OSIndex
		}
	}
	return -1
}

// adversarialCost prices the dragonfly's worst case under one routing
// policy: every node of group 0 streams to its counterpart in group 1, with
// the per-edge contention declared from the same routes pricing walks.
func adversarialCost(t *testing.T, policy RoutingPolicy) (total float64, maxStreams int) {
	t.Helper()
	m := dragonflyMachine(t)
	if err := m.SetRoutingPolicy(policy); err != nil {
		t.Fatalf("SetRoutingPolicy(%v): %v", policy, err)
	}
	// dragonfly:4,2,2 -> 4 nodes per group; group 0 = nodes 0..3,
	// group 1 = nodes 4..7.
	pairs := [][2]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}
	// One stream per pair; an edge the path crosses twice (a Valiant detour
	// descends to the via node and climbs back out) still carries one
	// stream — the same set semantics placement.SetFabricContention uses.
	counts := make([]int, m.FabricGraph().NumEdges())
	for _, p := range pairs {
		used := map[int]bool{}
		for _, e := range m.AppendRoutedPath(nil, p[0], p[1]) {
			used[e] = true
		}
		for e := range used {
			counts[e]++
		}
	}
	for _, c := range counts {
		if c > maxStreams {
			maxStreams = c
		}
	}
	m.SetEdgeStreams(counts)
	const bytes = 1 << 28
	for _, p := range pairs {
		total += m.TransferCost(firstPUOfNode(m, p[0]), firstPUOfNode(m, p[1]), bytes)
	}
	return total, maxStreams
}

// TestValiantBeatsMinimalUnderAdversarialTraffic: minimal routing funnels
// all four group-0→group-1 streams through the single minimal gateway's
// global link (4-way sharing); Valiant detours spread them across the other
// groups' global links, and the contention relief outweighs the doubled
// path latency on bandwidth-bound transfers.
func TestValiantBeatsMinimalUnderAdversarialTraffic(t *testing.T) {
	minimal, minMax := adversarialCost(t, RouteMinimal)
	valiant, valMax := adversarialCost(t, RouteValiant)
	if minMax != 4 {
		t.Fatalf("minimal routing should funnel all 4 streams over one edge, max streams = %d", minMax)
	}
	if valMax >= minMax {
		t.Fatalf("valiant routing did not spread the streams: max %d vs minimal %d", valMax, minMax)
	}
	if valiant >= minimal {
		t.Fatalf("valiant cost %.0f not below minimal %.0f under adversarial traffic", valiant, minimal)
	}
}

// TestMinimalPolicyIsDefaultAndBitStable: the zero-value policy prices
// exactly like the graph's memoized minimal paths.
func TestMinimalPolicyIsDefaultAndBitStable(t *testing.T) {
	m := dragonflyMachine(t)
	if m.RoutingPolicy() != RouteMinimal {
		t.Fatalf("default policy = %v", m.RoutingPolicy())
	}
	g := m.FabricGraph()
	for from := 0; from < g.NumNodes(); from++ {
		for to := 0; to < g.NumNodes(); to++ {
			if from == to {
				continue
			}
			if got, _ := m.fabricWalk(from, to, nil); got != g.PathLatency(from, to) {
				want := g.PathLatency(from, to)
				t.Fatalf("minimal latency (%d,%d) = %v, want cached %v", from, to, got, want)
			}
		}
	}
}

// TestValiantLatencyMatchesWalk: under valiant the walk prices the graph's
// uncached ValiantRoute through the pair's intermediate node.
func TestValiantLatencyMatchesWalk(t *testing.T) {
	m := dragonflyMachine(t)
	if err := m.SetRoutingPolicy(RouteValiant); err != nil {
		t.Fatalf("SetRoutingPolicy: %v", err)
	}
	for from := 0; from < 8; from++ {
		for to := 8; to < 16; to++ {
			var want float64
			for _, e := range m.FabricGraph().ValiantRoute(from, to, m.valiantVia(from, to)) {
				want += m.FabricGraph().Edges()[e].LatencyCycles
			}
			if got, _ := m.fabricWalk(from, to, nil); got != want {
				t.Fatalf("valiant latency (%d,%d) = %v, walk %v", from, to, got, want)
			}
		}
	}
}

// TestValiantRequiresFabric: a single-machine topology has no routed graph.
func TestValiantRequiresFabric(t *testing.T) {
	m, err := New(topology.PaperMachine(), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.SetRoutingPolicy(RouteValiant); err == nil {
		t.Fatal("valiant accepted without a fabric graph")
	}
	if err := m.SetRoutingPolicy(RouteMinimal); err != nil {
		t.Fatalf("minimal refused: %v", err)
	}
}

func TestParseRoutingPolicy(t *testing.T) {
	if p, err := ParseRoutingPolicy("valiant"); err != nil || p != RouteValiant {
		t.Fatalf("valiant: %v %v", p, err)
	}
	if p, err := ParseRoutingPolicy("minimal"); err != nil || p != RouteMinimal {
		t.Fatalf("minimal: %v %v", p, err)
	}
	if _, err := ParseRoutingPolicy("adaptive"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
