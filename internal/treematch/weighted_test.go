package treematch

import (
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

// TestPartitionAcrossQuadrants pins the ROADMAP "quadrant partitions on
// lattices" item: on the 8×8 unit stencil the optimal 4-way partition is
// the four 4×4 quadrants, keeping intra volume 192 of 224 (cutting 16
// edges). Greedy seeding snakes into slabs (176), KL cannot cross the
// energy barrier, and coarsening stops at a center-block optimum (180); the
// spectral-bisection candidate must reach the quadrant cut.
func TestPartitionAcrossQuadrants(t *testing.T) {
	m := comm.Stencil2DSparse(8, 8, 1, 0)
	groups, err := partitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	intra := intraVolume(m, groups)
	if intra < 192 {
		t.Fatalf("4-way partition of the 8x8 stencil keeps intra volume %.0f, want 192 (the quadrant cut)", intra)
	}
	for gi, g := range groups {
		if len(g) != 16 {
			t.Errorf("group %d has %d members, want 16", gi, len(g))
		}
	}
}

func TestWeightedSizes(t *testing.T) {
	for _, tc := range []struct {
		p    int
		caps []int
		want []int
	}{
		{48, []int{8, 4, 8, 4, 8, 4, 8, 4}, []int{8, 4, 8, 4, 8, 4, 8, 4}},
		{12, []int{8, 4}, []int{8, 4}},
		{10, []int{8, 4}, []int{7, 3}},
		{5, []int{2, 2}, []int{3, 2}}, // remainder to the lower index on ties
		{3, []int{1, 1, 4}, []int{1, 0, 2}},
	} {
		got := weightedSizes(tc.p, tc.caps)
		if len(got) != len(tc.want) {
			t.Fatalf("weightedSizes(%d, %v) = %v", tc.p, tc.caps, got)
		}
		sum := 0
		for i := range got {
			sum += got[i]
			if got[i] != tc.want[i] {
				t.Errorf("weightedSizes(%d, %v) = %v, want %v", tc.p, tc.caps, got, tc.want)
				break
			}
		}
		if sum != tc.p {
			t.Errorf("weightedSizes(%d, %v) sums to %d", tc.p, tc.caps, sum)
		}
	}
}

func TestPartitionAcrossWeighted(t *testing.T) {
	// 12 tasks in two cliques of 8 and 4 on capacities 8 and 4: the weighted
	// partition must recover the cliques exactly (cut 0).
	m := comm.New(12)
	clique := func(ids []int) {
		for _, i := range ids {
			for _, j := range ids {
				if i < j {
					m.AddSym(i, j, 10)
				}
			}
		}
	}
	big := []int{0, 1, 2, 3, 4, 5, 6, 7}
	small := []int{8, 9, 10, 11}
	clique(big)
	clique(small)
	m.AddSym(0, 8, 1) // light bridge so the graph is connected

	groups, err := PartitionAcrossWeighted(m, []int{8, 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) != 8 || len(groups[1]) != 4 {
		t.Fatalf("group sizes %d/%d, want 8/4", len(groups[0]), len(groups[1]))
	}
	for _, e := range groups[0] {
		if e >= 8 {
			t.Fatalf("entity %d of the small clique landed in the big group: %v", e, groups)
		}
	}
	// Positional capacities: swapping the capacity order must swap the
	// group contents.
	swapped, err := PartitionAcrossWeighted(m, []int{4, 8}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(swapped[0]) != 4 || len(swapped[1]) != 8 {
		t.Fatalf("swapped capacities gave sizes %d/%d, want 4/8", len(swapped[0]), len(swapped[1]))
	}
}

func TestPartitionAcrossWeightedEqualMatchesUnweighted(t *testing.T) {
	m := comm.Stencil2DSparse(8, 4, 1000, 0)
	w, err := PartitionAcrossWeighted(m, []int{6, 6, 6, 6}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := oraclePartitionAcross(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != len(u) {
		t.Fatalf("group counts differ: %d vs %d", len(w), len(u))
	}
	for g := range w {
		if len(w[g]) != len(u[g]) {
			t.Fatalf("equal-capacity weighted partition differs from the unweighted oracle: %v vs %v", w, u)
		}
		for i := range w[g] {
			if w[g][i] != u[g][i] {
				t.Fatalf("equal-capacity weighted partition differs from the unweighted oracle: %v vs %v", w, u)
			}
		}
	}
}

func TestPartitionAcrossWeightedErrors(t *testing.T) {
	if _, err := PartitionAcrossWeighted(comm.New(4), nil, Options{}); err == nil {
		t.Error("empty capacities accepted")
	}
	if _, err := PartitionAcrossWeighted(comm.New(4), []int{2, 0}, Options{}); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestNodeSubtrees(t *testing.T) {
	// Heterogeneous platform: one 2x8 node and one 1x4 node.
	ps, err := topology.ParsePlatform("node:{pack:2 core:8 | pack:1 core:4}")
	if err != nil {
		t.Fatal(err)
	}
	fused, err := ps.FusedSpec()
	if err != nil {
		t.Fatal(err)
	}
	topo, err := topology.FromSpec(fused)
	if err != nil {
		t.Fatal(err)
	}
	trees, err := NodeSubtrees(topo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 {
		t.Fatalf("%d node subtrees, want 2", len(trees))
	}
	if trees[0].Leaves() != 16 || trees[1].Leaves() != 4 {
		t.Errorf("subtree leaves %d/%d, want 16/4", trees[0].Leaves(), trees[1].Leaves())
	}
	// Homogeneous clusters (identical trees) are TestNodeSubtree's subject.
	// A single machine is its own single node.
	oneTopo, err := topology.FromSpec("pack:2 core:4")
	if err != nil {
		t.Fatal(err)
	}
	one, err := NodeSubtrees(oneTopo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0].Leaves() != 8 {
		t.Fatalf("single machine subtrees = %v", one)
	}
	// A node whose own subtree is uneven is still rejected.
	unevenTopo, err := topology.FromSpec("node:2 pack:2 core:4,4,2,4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NodeSubtrees(unevenTopo, topology.Core); err == nil {
		t.Error("uneven per-node subtree accepted")
	}
}

// TestNodeSubtreesMatchPerNodeWalk holds NodeSubtrees to subtreeOf on every
// node, arity for arity, on uniform and heterogeneous platforms, and
// requires consecutive nodes of equal arities to share one tree.
func TestNodeSubtreesMatchPerNodeWalk(t *testing.T) {
	for _, spec := range []string{
		"cluster:6 pack:2 core:4",
		"node:{pack:2 core:8 | pack:1 core:4}",
		"pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}",
		"rack:2 node:{pack:2 core:4 | pack:2 core:4 | pack:2 core:2 | pack:1 core:2 pu:2 | pack:2 core:4 | pack:2 core:4}",
	} {
		ps, err := topology.ParsePlatform(spec)
		if err != nil {
			t.Fatal(err)
		}
		fused, err := ps.FusedSpec()
		if err != nil {
			t.Fatal(err)
		}
		topo, err := topology.FromSpec(fused)
		if err != nil {
			t.Fatal(err)
		}
		got, err := NodeSubtrees(topo, topology.Core)
		if err != nil {
			t.Fatal(err)
		}
		nodes := topo.ClusterNodes()
		if len(got) != len(nodes) {
			t.Fatalf("%s: %d trees for %d nodes", spec, len(got), len(nodes))
		}
		for i, node := range nodes {
			want, err := subtreeOf(node, topo.DepthOf(topology.Core))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got[i].Arities(), want.Arities()) || got[i].Leaves() != want.Leaves() {
				t.Errorf("%s node %d: tree %v, the node's own walk gives %v", spec, i, got[i], want)
			}
			if i > 0 && slices.Equal(got[i].Arities(), got[i-1].Arities()) != (got[i] == got[i-1]) {
				t.Errorf("%s nodes %d and %d: equal arities %v, shared tree %v", spec, i-1, i,
					slices.Equal(got[i].Arities(), got[i-1].Arities()), got[i] == got[i-1])
			}
		}
	}
}

func TestAssignClassed(t *testing.T) {
	// Fabric tree [2 2 2]: 8 leaves (pods of 2 racks of 2 nodes). Leaf
	// classes alternate big/small per rack; entity pairs (0,5), (1,4),
	// (2,7), (3,6) exchange heavy volume and must land rack-adjacent, which
	// the identity assignment does not deliver.
	tree, err := NewTree([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m := comm.New(8)
	for _, pr := range [][2]int{{0, 5}, {1, 4}, {2, 7}, {3, 6}} {
		m.AddSym(pr[0], pr[1], 100)
	}
	entityClass := []int{0, 1, 0, 1, 0, 1, 0, 1} // group sizes 8,4,8,4,...
	leafClass := []int{0, 1, 0, 1, 0, 1, 0, 1}
	a, err := AssignClassed(tree, m, entityClass, leafClass)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 8)
	for g, leaf := range a {
		if leafClass[leaf] != entityClass[g] {
			t.Errorf("group %d (class %d) on leaf %d (class %d)", g, entityClass[g], leaf, leafClass[leaf])
		}
		if seen[leaf] {
			t.Fatalf("leaf %d assigned twice", leaf)
		}
		seen[leaf] = true
	}
	// Every heavy pair must share a rack: distance 2 on the [2 2 2] tree.
	for _, pr := range [][2]int{{0, 5}, {1, 4}, {2, 7}, {3, 6}} {
		if d := tree.LeafDistance(a[pr[0]], a[pr[1]]); d != 2 {
			t.Errorf("pair %v at distance %d, want 2 (same rack); assignment %v", pr, d, a)
		}
	}
	// Mismatched class multisets are rejected.
	if _, err := AssignClassed(tree, m, []int{0, 0, 0, 0, 0, 0, 0, 0}, leafClass); err == nil {
		t.Error("mismatched class multisets accepted")
	}
}
