package treematch

import (
	"testing"

	"repro/internal/topology"
)

func mustTree(t *testing.T, arities ...int) *Tree {
	t.Helper()
	tr, err := NewTree(arities)
	if err != nil {
		t.Fatalf("NewTree(%v): %v", arities, err)
	}
	return tr
}

func TestNewTree(t *testing.T) {
	tr := mustTree(t, 24, 8)
	if tr.Leaves() != 192 {
		t.Errorf("Leaves = %d, want 192", tr.Leaves())
	}
	if tr.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", tr.Depth())
	}
	if tr.Arity(0) != 24 || tr.Arity(1) != 8 {
		t.Errorf("Arities = %v", tr.Arities())
	}
	if tr.String() != "tree[24 8]" {
		t.Errorf("String = %q", tr.String())
	}
	empty := mustTree(t)
	if empty.Leaves() != 1 || empty.Depth() != 1 {
		t.Errorf("empty tree: %d leaves depth %d", empty.Leaves(), empty.Depth())
	}
	if _, err := NewTree([]int{4, 0}); err == nil {
		t.Errorf("zero arity accepted")
	}
	if _, err := NewTree([]int{-1}); err == nil {
		t.Errorf("negative arity accepted")
	}
	if _, err := NewTree([]int{1 << 14, 1 << 14}); err == nil {
		t.Errorf("oversized tree accepted")
	}
}

func TestFromTopology(t *testing.T) {
	top, err := topology.FromSpec("pack:4 l3:1 core:2 pu:2")
	if err != nil {
		t.Fatal(err)
	}
	// Core leaves: arity-1 levels (numa, l3) collapse; arities [4,2].
	tr, err := FromTopology(top, topology.Core)
	if err != nil {
		t.Fatalf("FromTopology: %v", err)
	}
	if got := tr.Arities(); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Errorf("core-leaf arities = %v, want [4 2]", got)
	}
	// PU leaves: arities [4,2,2].
	trPU, err := FromTopology(top, topology.PU)
	if err != nil {
		t.Fatalf("FromTopology(PU): %v", err)
	}
	if trPU.Leaves() != 16 {
		t.Errorf("PU leaves = %d, want 16", trPU.Leaves())
	}
	if _, err := FromTopology(top, topology.Group); err == nil {
		t.Errorf("missing level accepted")
	}
}

func TestExtend(t *testing.T) {
	tr := mustTree(t, 2, 3)
	ext, err := tr.Extend(4)
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if ext.Leaves() != 24 || ext.Depth() != 4 {
		t.Errorf("extended: %d leaves depth %d", ext.Leaves(), ext.Depth())
	}
	if tr.Leaves() != 6 {
		t.Errorf("Extend mutated the original tree")
	}
	if _, err := tr.Extend(0); err == nil {
		t.Errorf("Extend(0) accepted")
	}
}

func TestAncestorAndDistance(t *testing.T) {
	tr := mustTree(t, 2, 3) // 6 leaves: two subtrees of 3
	if got := tr.AncestorIndex(4, 1); got != 1 {
		t.Errorf("AncestorIndex(4,1) = %d, want 1", got)
	}
	if got := tr.AncestorIndex(2, 1); got != 0 {
		t.Errorf("AncestorIndex(2,1) = %d, want 0", got)
	}
	if got := tr.AncestorIndex(5, 0); got != 0 {
		t.Errorf("AncestorIndex(5,0) = %d, want 0", got)
	}
	tests := []struct{ a, b, lca, dist int }{
		{0, 0, 2, 0},
		{0, 1, 1, 2}, // same subtree
		{0, 3, 0, 4}, // different subtrees
		{3, 5, 1, 2},
	}
	for _, tc := range tests {
		if got := tr.LCADepth(tc.a, tc.b); got != tc.lca {
			t.Errorf("LCADepth(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.lca)
		}
		if got := tr.LeafDistance(tc.a, tc.b); got != tc.dist {
			t.Errorf("LeafDistance(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.dist)
		}
	}
}

func TestRestrict(t *testing.T) {
	tr := mustTree(t, 24, 8) // 192 leaves
	r, err := tr.Restrict(72)
	if err != nil {
		t.Fatal(err)
	}
	// 24 sockets of 3 cores: deepest level shrinks first.
	if got := r.Arities(); got[0] != 24 || got[1] != 3 {
		t.Errorf("restricted arities = %v, want [24 3]", got)
	}
	if r.Leaves() < 72 {
		t.Errorf("restricted leaves = %d < 72", r.Leaves())
	}
	// Asking for >= leaves returns the same tree.
	same, err := tr.Restrict(192)
	if err != nil || same != tr {
		t.Errorf("Restrict(192) = %v, %v", same, err)
	}
	same, err = tr.Restrict(500)
	if err != nil || same != tr {
		t.Errorf("Restrict(500) = %v, %v", same, err)
	}
	if _, err := tr.Restrict(0); err == nil {
		t.Errorf("Restrict(0) accepted")
	}
	// Restriction can climb into upper levels when needed.
	r2, err := tr.Restrict(12)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Leaves() < 12 || r2.Leaves() > 14 {
		t.Errorf("Restrict(12) leaves = %d", r2.Leaves())
	}
}

func TestEmbedLeaf(t *testing.T) {
	orig := mustTree(t, 4, 8) // 32 leaves
	r, err := orig.Restrict(8)
	if err != nil {
		t.Fatal(err)
	}
	// Expect [4 2]: 4 sockets of 2 cores.
	if got := r.Arities(); got[0] != 4 || got[1] != 2 {
		t.Fatalf("restricted arities = %v", got)
	}
	// Restricted leaf 3 = socket 1, slot 1 -> original core 1*8+1 = 9.
	if got, err := EmbedLeaf(orig, r, 3); err != nil || got != 9 {
		t.Errorf("EmbedLeaf(3) = %d, %v, want 9", got, err)
	}
	if got, err := EmbedLeaf(orig, r, 0); err != nil || got != 0 {
		t.Errorf("EmbedLeaf(0) = %d, %v, want 0", got, err)
	}
	// Every embedded leaf is distinct and in range.
	seen := map[int]bool{}
	for leaf := 0; leaf < r.Leaves(); leaf++ {
		e, err := EmbedLeaf(orig, r, leaf)
		if err != nil || e < 0 || e >= orig.Leaves() || seen[e] {
			t.Fatalf("EmbedLeaf(%d) = %d, %v", leaf, e, err)
		}
		seen[e] = true
	}
	if _, err := EmbedLeaf(orig, r, 99); err == nil {
		t.Errorf("out-of-range leaf accepted")
	}
	other := mustTree(t, 4)
	if _, err := EmbedLeaf(other, r, 0); err == nil {
		t.Errorf("depth mismatch accepted")
	}
}

func TestMapWithDistributeSpreads(t *testing.T) {
	// 6 mutually-communicating tasks on a 4x4 tree: without distribution
	// they pile onto as few subtrees as possible; with it they must spread
	// over at least 3 sockets (restricted arity 4x2 gives ceil(6/2)=3).
	tree := mustTree(t, 4, 4)
	m := allToAll(6, 10)
	sockets := func(opt Options) int {
		res, err := Map(Target{Tree: tree, SMTWays: 1}, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		used := map[int]bool{}
		for _, leaf := range res.Assignment {
			used[leaf/4] = true
		}
		return len(used)
	}
	packed := sockets(Options{})
	spread := sockets(Options{Distribute: true})
	if spread <= packed {
		t.Errorf("distribution did not spread: %d sockets vs %d packed", spread, packed)
	}
}

func TestLeafDistanceMatchesTopologyHops(t *testing.T) {
	// The abstract tree distance must order pairs the same way as the
	// concrete topology hop distance (both are ultrametrics from the same
	// tree shape, modulo collapsed arity-1 levels).
	top, err := topology.FromSpec("pack:3 core:4 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := FromTopology(top, topology.PU)
	if err != nil {
		t.Fatal(err)
	}
	pus := top.PUs()
	n := len(pus)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				ta, tb := tr.LeafDistance(i, j), tr.LeafDistance(i, k)
				ha, hb := top.HopDistance(pus[i], pus[j]), top.HopDistance(pus[i], pus[k])
				if (ta < tb) != (ha < hb) && (ta == tb) != (ha == hb) {
					t.Fatalf("distance order disagrees at (%d,%d,%d): tree %d,%d topo %d,%d",
						i, j, k, ta, tb, ha, hb)
				}
			}
		}
	}
}

func TestFromTopologyRejectsUneven(t *testing.T) {
	top, err := topology.FromSpec("pack:3 core:2,1,1 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromTopology(top, topology.Core); err == nil {
		t.Errorf("FromTopology accepted an uneven topology; the balanced-tree distance model would be wrong")
	}
}
