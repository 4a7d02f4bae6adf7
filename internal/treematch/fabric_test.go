package treematch

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

func TestFabricTree(t *testing.T) {
	top, err := topology.FromSpec("rack:2 node:3 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FabricTree(top)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Leaves(); got != 6 {
		t.Fatalf("fabric tree leaves = %d, want 6 cluster nodes", got)
	}
	if got := tree.Arities(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("fabric tree arities = %v, want [2 3]", got)
	}
	// Same-rack nodes are closer than rack-crossing pairs.
	if intra, inter := tree.LeafDistance(0, 1), tree.LeafDistance(0, 3); intra >= inter {
		t.Errorf("intra-rack distance %d not below cross-rack %d", intra, inter)
	}
}

func TestFabricTreeFlatFabric(t *testing.T) {
	top, err := topology.FromSpec("node:4 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	tree, err := FabricTree(top)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Leaves() != 4 || tree.Depth() != 2 {
		t.Fatalf("flat fabric tree = %v, want a single 4-ary level", tree)
	}
	// On a flat fabric every leaf pair is equidistant: permuting groups
	// cannot change the modeled cost, which is why Hierarchical skips the
	// matching there.
	d := tree.LeafDistance(0, 1)
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if tree.LeafDistance(a, b) != d {
				t.Fatalf("leaf distance (%d,%d) = %d, want uniform %d", a, b, tree.LeafDistance(a, b), d)
			}
		}
	}
}

func TestFabricTreeNoCluster(t *testing.T) {
	if _, err := FabricTree(topology.PaperMachine()); err == nil || !strings.Contains(err.Error(), "no cluster level") {
		t.Fatalf("single machine accepted: %v", err)
	}
}

// TestPartitionAcrossMatrix: the aggregated matrix the weighted partition
// emits is the quotient of the affinity matrix over the returned groups.
func TestPartitionAcrossMatrix(t *testing.T) {
	m := comm.New(6)
	m.AddSym(0, 1, 10)
	m.AddSym(2, 3, 10)
	m.AddSym(4, 5, 10)
	m.AddSym(1, 2, 1)
	groups, agg, err := PartitionAcrossWeightedMatrix(m, []int{2, 2, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Order() != 3 {
		t.Fatalf("aggregated order = %d, want 3", agg.Order())
	}
	want, err := m.Aggregate(groups)
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Equal(want, 0) {
		t.Error("aggregated matrix does not match m.Aggregate(groups)")
	}
	// The heavy pairs stay together, so every diagonal entry carries them.
	for g := 0; g < 3; g++ {
		if agg.At(g, g) != 20 {
			t.Errorf("group %d intra volume = %.0f, want 20", g, agg.At(g, g))
		}
	}
}

// TestPartitionAcrossBalancedStreams: among equal-cut partitions the
// portfolio prefers the one whose most exposed group sends fewer streams
// across the boundary — the property per-link fabric contention rewards.
func TestPartitionAcrossBalancedStreams(t *testing.T) {
	// 8×4 halo grid, 4 groups of 8: vertical slices and 4×2 blocks tie on
	// cut volume, but slices expose 8 crossing entities on the middle groups
	// while blocks expose at most 6.
	bx, by := 8, 4
	m := comm.New(bx * by)
	id := func(x, y int) int { return y*bx + x }
	for y := 0; y < by; y++ {
		for x := 0; x < bx; x++ {
			if x+1 < bx {
				m.AddSym(id(x, y), id(x+1, y), 1)
			}
			if y+1 < by {
				m.AddSym(id(x, y), id(x, y+1), 1)
			}
		}
	}
	groups, err := partitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, peak := crossingStats(m, groups, new(crossingTables))
	if peak > 6 {
		t.Errorf("most exposed group sends %d streams, want a balanced partition (<= 6)", peak)
	}
}
