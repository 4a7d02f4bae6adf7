package treematch

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

func TestNodeSubtree(t *testing.T) {
	topo, err := topology.FromSpec("node:4 pack:2 core:8")
	if err != nil {
		t.Fatal(err)
	}
	trees, err := NodeSubtrees(topo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 4 {
		t.Fatalf("%d subtrees, want 4", len(trees))
	}
	for i, tree := range trees {
		if tree.Leaves() != 16 || tree.Depth() != trees[0].Depth() {
			t.Fatalf("subtree %d = %v, want 16 leaves shaped like %v", i, tree, trees[0])
		}
	}
	// The subtree must not contain the cluster arity.
	full, err := FromTopology(topo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if full.Leaves() != 64 {
		t.Fatalf("full tree has %d leaves, want 64", full.Leaves())
	}
}

func TestNodeSubtreeSingleMachine(t *testing.T) {
	topo, err := topology.FromSpec("pack:2 core:4")
	if err != nil {
		t.Fatal(err)
	}
	trees, err := NodeSubtrees(topo, topology.Core)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].Leaves() != 8 {
		t.Fatalf("single-machine subtrees = %v, want one of 8 leaves", trees)
	}
}

func TestNodeSubtreeUnevenRejected(t *testing.T) {
	topo, err := topology.FromSpec("node:2 pack:2 core:4,4,2,4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NodeSubtrees(topo, topology.Core); err == nil {
		t.Fatal("uneven cluster accepted")
	}
}

func TestPartitionAcrossLattice(t *testing.T) {
	// An 8x4 lattice with uniform edges: the optimal 4-way partition cuts
	// 12 edges (4 vertical 2x4 stripes). The portfolio partitioner must
	// find a 12-edge cut.
	m := comm.Stencil2DSparse(8, 4, 1000, 0)
	groups, err := PartitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	total := m.TotalVolume()
	intra := intraVolume(m, groups)
	cutEdges := (total - intra) / 2000 // each cut edge carries 1000 both ways
	if cutEdges > 12 {
		t.Errorf("4-way partition of the 8x4 lattice cuts %.0f edges, want <= 12", cutEdges)
	}
	for gi, g := range groups {
		if len(g) != 8 {
			t.Errorf("group %d has %d members, want 8", gi, len(g))
		}
	}
}

func TestPartitionAcrossUnevenOrder(t *testing.T) {
	// 10 entities across 4 groups: capacity ceil(10/4)=3, padding stripped.
	m := comm.Ring(10, 100)
	groups, err := PartitionAcross(m, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 4 {
		t.Fatalf("%d groups, want 4", len(groups))
	}
	seen := make([]bool, 10)
	for _, g := range groups {
		if len(g) > 3 {
			t.Errorf("group of %d exceeds capacity 3", len(g))
		}
		for _, e := range g {
			if seen[e] {
				t.Fatalf("entity %d in two groups", e)
			}
			seen[e] = true
		}
	}
	for e, ok := range seen {
		if !ok {
			t.Errorf("entity %d not assigned", e)
		}
	}
}

func TestPartitionAcrossDegenerate(t *testing.T) {
	if _, err := PartitionAcross(comm.New(4), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	groups, err := PartitionAcross(comm.New(0), 3, Options{})
	if err != nil || len(groups) != 3 {
		t.Errorf("empty matrix: groups=%v err=%v", groups, err)
	}
	// k=1: everything in one group.
	groups, err = PartitionAcross(comm.Ring(5, 10), 1, Options{})
	if err != nil || len(groups) != 1 || len(groups[0]) != 5 {
		t.Errorf("k=1: groups=%v err=%v", groups, err)
	}
}

// TestPartitionAcrossConcurrentMatchesSequential pins that the concurrent
// candidate-portfolio evaluation is bit-identical to a sequential pass over
// the same portfolio: the candidates are independent and the best-pick runs
// in fixed candidate order, so parallelism must not be observable in the
// result. (PartitionAcross evaluates concurrently; the sequential arm here
// drives the identical portfolio through the same scorer one by one.)
func TestPartitionAcrossConcurrentMatchesSequential(t *testing.T) {
	matrices := map[string]*comm.Matrix{
		"lattice8x8": comm.Stencil2DSparse(8, 8, 100, 0),
		"lattice6x4": comm.Stencil2DSparse(6, 4, 100, 10),
		"ring30":     comm.Ring(30, 64),
		"random24":   comm.Random(24, 0.4, 1000, 7),
		"random36":   comm.Random(36, 0.25, 512, 11),
	}
	for name, m := range matrices {
		for _, k := range []int{2, 3, 4} {
			per := (m.Order() + k - 1) / k
			work := m
			if per*k > m.Order() {
				var err error
				work, err = m.ExtendZero(per * k)
				if err != nil {
					t.Fatal(err)
				}
			}
			seq, err := pickPartition(evalPartitionCandidates(work, equalPartitionCandidates(work, m.Order(), k, per, nil), false))
			if err != nil {
				t.Fatalf("%s k=%d sequential: %v", name, k, err)
			}
			conc, err := PartitionAcross(m, k, Options{})
			if err != nil {
				t.Fatalf("%s k=%d concurrent: %v", name, k, err)
			}
			// Strip the padding from the sequential result the same way
			// PartitionAcross does before comparing.
			want := make([][]int, k)
			for gi, g := range seq {
				for _, e := range g {
					if e < m.Order() {
						want[gi] = append(want[gi], e)
					}
				}
			}
			if !reflect.DeepEqual(conc, want) {
				t.Errorf("%s k=%d: concurrent %v != sequential %v", name, k, conc, want)
			}
		}
	}
}

// TestPartitionAcrossWeightedConcurrentMatchesSequential is the same pin for
// the capacity-weighted portfolio.
func TestPartitionAcrossWeightedConcurrentMatchesSequential(t *testing.T) {
	m := comm.Random(24, 0.5, 2048, 3)
	caps := []int{8, 4, 4}
	sizes := weightedSizes(m.Order(), caps)
	passes := partitionRefinePasses
	refine := func(groups [][]int) [][]int {
		if passes > 0 && len(caps) > 1 {
			refineGroups(m, groups, passes)
		}
		return groups
	}
	cands := []partitionCandidate{
		func() ([][]int, error) { return refine(greedySizedGroups(m, sizes, new(affinityFill))), nil },
		func() ([][]int, error) {
			groups, err := spectralPartitionSized(m, identityIDs(m.Order()), sizes, nil, new(spectralScratch))
			if err != nil {
				return nil, err
			}
			return refine(groups), nil
		},
	}
	seq, err := pickPartition(evalPartitionCandidates(m, cands, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range seq {
		sort.Ints(g)
	}
	conc, err := PartitionAcrossWeighted(m, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(conc, seq) {
		t.Errorf("concurrent %v != sequential %v", conc, seq)
	}
}

// TestSpectralCandidateSkippedOnPaddedMatrices pins the portfolio's
// no-padding guard: spectral bisection joins the candidate list only when
// per·k equals the unpadded order, because zero-volume padding entities
// drown the Fiedler direction. The guard compares against the original
// order, not the padded working matrix's.
func TestSpectralCandidateSkippedOnPaddedMatrices(t *testing.T) {
	m := comm.Random(30, 0.4, 1000, 5)
	work, err := m.ExtendZero(32) // k=4 pads 30 entities to 32
	if err != nil {
		t.Fatal(err)
	}
	padded := equalPartitionCandidates(work, 30, 4, 8, nil)
	exact := equalPartitionCandidates(work, 32, 4, 8, nil)
	if len(exact) != len(padded)+1 {
		t.Errorf("padded portfolio has %d candidates, exact %d; spectral must only join the exact one",
			len(padded), len(exact))
	}
}
