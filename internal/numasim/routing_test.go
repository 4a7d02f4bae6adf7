package numasim

import "testing"

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

// TestMinimalPolicyIsDefaultAndBitStable: minimal routing is the only
// policy, and the walk prices exactly like the graph's memoized minimal
// paths.
func TestMinimalPolicyIsDefaultAndBitStable(t *testing.T) {
	m := dragonflyMachine(t)
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
