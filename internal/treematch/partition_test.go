package treematch

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

// partitionAcross is the equal-capacity cut through the package entrance:
// PartitionAcrossWeighted over k equal capacities.
func partitionAcross(m *comm.Matrix, k int, opt Options) ([][]int, error) {
	return PartitionAcrossWeighted(m, slices.Repeat([]int{1}, k), opt)
}

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
	groups, err := partitionAcross(m, 4, Options{})
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
	groups, err := partitionAcross(m, 4, Options{})
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
	if _, err := partitionAcross(comm.New(4), 0, Options{}); err == nil {
		t.Error("k=0 accepted")
	}
	groups, err := partitionAcross(comm.New(0), 3, Options{})
	if err != nil || len(groups) != 3 {
		t.Errorf("empty matrix: groups=%v err=%v", groups, err)
	}
	// k=1: everything in one group.
	groups, err = partitionAcross(comm.Ring(5, 10), 1, Options{})
	if err != nil || len(groups) != 1 || len(groups[0]) != 5 {
		t.Errorf("k=1: groups=%v err=%v", groups, err)
	}
}

// TestPartitionAcrossConcurrentMatchesSequential pins that the oracle's
// portfolio evaluated one candidate after another, the same evaluated one
// goroutine per candidate, and the package function — one after another
// below concurrentMinOrder, concurrently from it, so the orders here fall
// on both sides — are bit-identical: the candidates are independent and
// the best-pick runs in fixed candidate order, so parallelism must not be
// observable in the result.
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
			conc, err := pickPartition(evalPartitionCandidates(work, equalPartitionCandidates(work, m.Order(), k, per), true))
			if err != nil {
				t.Fatalf("%s k=%d concurrent: %v", name, k, err)
			}
			seq, err := pickPartition(evalPartitionCandidates(work, equalPartitionCandidates(work, m.Order(), k, per), false))
			if err != nil {
				t.Fatalf("%s k=%d sequential: %v", name, k, err)
			}
			if !reflect.DeepEqual(seq, conc) {
				t.Errorf("%s k=%d: oracle sequential %v != concurrent %v", name, k, seq, conc)
			}
			got, err := partitionAcross(m, k, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// Strip the padding from the concurrent result the way the
			// partitioner does before comparing.
			want := make([][]int, k)
			for gi, g := range conc {
				for _, e := range g {
					if e < m.Order() {
						want[gi] = append(want[gi], e)
					}
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s k=%d: package function %v != oracle %v", name, k, got, want)
			}
		}
	}
}

// TestPartitionAcrossWeightedConcurrentMatchesSequential is the same pin for
// the capacity-weighted portfolio, on one order below concurrentMinOrder
// and one above.
func TestPartitionAcrossWeightedConcurrentMatchesSequential(t *testing.T) {
	for _, m := range []*comm.Matrix{comm.Random(24, 0.5, 2048, 3), comm.Random(40, 0.3, 2048, 4)} {
		caps := []int{8, 4, 4}
		sizes := weightedSizes(m.Order(), caps)
		conc, err := pickPartition(evalPartitionCandidates(m, weightedPartitionCandidates(m, sizes), true))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := pickPartition(evalPartitionCandidates(m, weightedPartitionCandidates(m, sizes), false))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, conc) {
			t.Errorf("order %d: oracle sequential %v != concurrent %v", m.Order(), seq, conc)
		}
		for _, g := range conc {
			sort.Ints(g)
		}
		got, err := PartitionAcrossWeighted(m, caps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, conc) {
			t.Errorf("order %d: package function %v != oracle %v", m.Order(), got, conc)
		}
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
	padded := equalPortfolio(work, 30, 4, 8, nil)
	exact := equalPortfolio(work, 32, 4, 8, nil)
	if exact.n != padded.n+1 || slices.Contains(padded.candidates(), spectralCandidate) ||
		exact.candidates()[exact.n-1] != spectralCandidate {
		t.Errorf("padded portfolio %v, exact %v; spectral must only join the exact one, last",
			padded.candidates(), exact.candidates())
	}
}
