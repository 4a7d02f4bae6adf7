package treematch

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
)

// partitionShapes are the ≤256-entity inputs the greedy fill is held to its
// scan oracle on: every existing generator family, odd and even k, padded
// and unpadded orders.
func partitionShapes() []struct {
	name string
	m    *comm.Matrix
	k    int
} {
	return []struct {
		name string
		m    *comm.Matrix
		k    int
	}{
		{"stencil16x16-k4", comm.Stencil2DSparse(16, 16, 64, 8), 4},
		{"stencil8x8-k2", comm.Stencil2DSparse(8, 8, 64, 8), 2},
		{"stencil5x7-k3-padded", comm.Stencil2DSparse(5, 7, 100, 10), 3},
		{"ring64-k8", comm.Ring(64, 3), 8},
		{"alltoall32-k4", allToAll(32, 2), 4},
		{"random100-k5", comm.Random(100, 0.15, 1000, 42), 5},
		{"random256-k8", comm.Random(256, 0.05, 500, 7), 8},
		{"lk23-2x2-k4", comm.LK23OpLevel(2, 2, 16, 16, 8), 4},
		{"empty48-k6", comm.New(48), 6},
	}
}

// TestGreedyFillMatchesScanEqualPadded holds the greedy fill to the scan on
// the sizes the equal cut seeds with: k equal groups over the zero-padded
// matrix.
func TestGreedyFillMatchesScanEqualPadded(t *testing.T) {
	for _, sh := range partitionShapes() {
		per := (sh.m.Order() + sh.k - 1) / sh.k
		work, err := sh.m.ExtendZero(per * sh.k)
		if err != nil {
			t.Fatal(err)
		}
		checkFillMatchesScan(t, sh.name, work, equalSizes(sh.k, per))
	}
}

// TestGreedyFillMatchesScanWeighted is the same check on the sizes
// PartitionAcrossWeighted apportions to unequal capacities.
func TestGreedyFillMatchesScanWeighted(t *testing.T) {
	for _, sh := range partitionShapes() {
		for _, caps := range [][]int{{8, 4, 4, 2}, {16, 8}, {5, 7, 11}, {1, 30}, {3, 1, 1, 1, 1, 9}} {
			checkFillMatchesScan(t, sh.name, sh.m, weightedSizes(sh.m.Order(), caps))
		}
	}
}

// TestGreedyFillMatchesScanGroupsAndAggregates is the same check on
// groupProcesses' groups of a, and on the aggregated matrix they induce,
// whose diagonal carries the intra-group volume. Each direction of an
// aggregate cell sums its non-integer volumes in another order, and every
// aggregate must still equal its transpose bit for bit.
func TestGreedyFillMatchesScanGroupsAndAggregates(t *testing.T) {
	for _, sh := range partitionShapes() {
		p := sh.m.Order()
		for _, a := range []int{2, 4} {
			if p%a != 0 {
				continue
			}
			name := fmt.Sprintf("%s a=%d", sh.name, a)
			checkFillMatchesScan(t, name, sh.m, equalSizes(p/a, a))
			if p/a%2 != 0 {
				continue
			}
			agg, err := sh.m.Aggregate(groupProcesses(sh.m, a, 2, new(affinityFill)))
			if err != nil {
				t.Fatal(err)
			}
			if !equalsTranspose(agg) {
				t.Errorf("%s: the aggregate differs from its transpose", name)
			}
			checkFillMatchesScan(t, name+" aggregated", agg, equalSizes(p/a/2, 2))
		}
	}
}

// checkPartitionInvariants verifies that groups cover 0..p-1 exactly once
// with the expected sizes.
func checkPartitionInvariants(t *testing.T, groups [][]int, p int, sizes []int) {
	t.Helper()
	if len(groups) != len(sizes) {
		t.Fatalf("got %d groups, want %d", len(groups), len(sizes))
	}
	seen := make([]bool, p)
	for gi, g := range groups {
		if len(g) != sizes[gi] {
			t.Errorf("group %d has %d members, want %d", gi, len(g), sizes[gi])
		}
		for _, e := range g {
			if e < 0 || e >= p {
				t.Fatalf("group %d: entity %d out of range", gi, e)
			}
			if seen[e] {
				t.Fatalf("entity %d placed twice", e)
			}
			seen[e] = true
		}
	}
	for e, ok := range seen {
		if !ok {
			t.Fatalf("entity %d not placed", e)
		}
	}
}

// TestMultilevelPartitionInvariants drives the equal cut above the
// multilevel threshold and checks exact cover, equal sizes, determinism,
// and that the cut beats a strided baseline on a lattice.
func TestMultilevelPartitionInvariants(t *testing.T) {
	m := comm.Stencil2DSparse(80, 80, 64, 8) // 6400 > multilevelMinOrder
	const k = 8
	groups, err := partitionAcross(m, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 6400 / k
	}
	checkPartitionInvariants(t, groups, 6400, sizes)

	again, err := partitionAcross(m, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groups, again) {
		t.Error("multilevel partition is not deterministic")
	}

	// A strided partition cuts almost every lattice edge; multilevel must
	// keep far more volume internal.
	strided := make([][]int, k)
	for e := 0; e < 6400; e++ {
		strided[e%k] = append(strided[e%k], e)
	}
	if got, base := intraVolume(m, groups), intraVolume(m, strided); got <= base {
		t.Errorf("multilevel intra volume %v not better than strided baseline %v", got, base)
	}
}

func TestMultilevelPartitionOddPerStopsCoarsening(t *testing.T) {
	// per = 5000/8 = 625 is odd: no coarsening level is available, so the
	// driver must go straight to greedy seeding + boundary refinement.
	m := comm.RandomSparse(5000, 4, 100, 3)
	const k = 8
	groups, err := partitionAcross(m, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 625
	}
	checkPartitionInvariants(t, groups, 5000, sizes)
}

func TestPartitionAcrossWeightedLargeSparse(t *testing.T) {
	m := comm.RandomSparse(5000, 3, 100, 9)
	caps := []int{16, 8, 8, 4, 12, 2, 6, 9}
	groups, err := PartitionAcrossWeighted(m, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkPartitionInvariants(t, groups, 5000, weightedSizes(5000, caps))
	again, err := PartitionAcrossWeighted(m, caps, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(groups, again) {
		t.Error("weighted large-sparse partition is not deterministic")
	}
}

// oracleStripPadding is partitionEqual's padding strip as it stood before it
// stripped in place: the p real entities copied into one array, each group
// a capped window of it, a group of padding alone nil.
func oracleStripPadding(best [][]int, p int) [][]int {
	flat, out := make([]int, 0, p), make([][]int, len(best))
	for gi, g := range best {
		lo := len(flat)
		for _, e := range g {
			if e < p {
				flat = append(flat, e)
			}
		}
		if len(flat) > lo {
			out[gi] = flat[lo:len(flat):len(flat)]
		}
	}
	return out
}

// TestPartitionEqualStripsLikeCopy holds the in-place strip to the copying
// one on padded inputs above multilevelMinOrder: partitionEqual's groups
// must be the multilevel partition of the padded matrix as the oracle
// strips it, each capped at its length, with the groups of padding alone
// nil (at least 100 of them in the random case).
func TestPartitionEqualStripsLikeCopy(t *testing.T) {
	for _, c := range []struct {
		m       *comm.Matrix
		k, nils int
	}{
		{comm.RandomSparse(4100, 8, 100, 1), 1000, 100}, // per 5: 900 padding entities
		{comm.Stencil2DSparse(70, 60, 64, 8), 11, 0},    // per 382, coarsened once: 2 padding entities
	} {
		p := c.m.Order()
		per := (p + c.k - 1) / c.k
		padded, err := c.m.ExtendZero(per * c.k)
		if err != nil {
			t.Fatal(err)
		}
		best, err := multilevelPartition(padded, c.k, per, new(candidateSets))
		if err != nil {
			t.Fatal(err)
		}
		want := oracleStripPadding(best, p)
		got, err := new(partitioner).partitionEqual(c.m, c.k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("order %d into %d: in-place strip differs from the copying one", p, c.k)
		}
		nils := 0
		for gi, g := range got {
			if g == nil {
				nils++
			}
			if cap(g) != len(g) {
				t.Errorf("order %d into %d: group %d has capacity %d beyond its %d members", p, c.k, gi, cap(g), len(g))
			}
		}
		if nils < c.nils {
			t.Errorf("order %d into %d: %d groups of padding alone, want ≥ %d", p, c.k, nils, c.nils)
		}
	}
}

func TestHeavyEdgeMatchingIsPerfect(t *testing.T) {
	for _, m := range []*comm.Matrix{
		comm.Stencil2DSparse(8, 8, 64, 8),
		comm.RandomSparse(100, 2, 10, 1),
		comm.New(10), // all isolated: leftover pairing only
	} {
		pairs := heavyEdgeMatching(m)
		n := m.Order()
		if len(pairs) != n/2 {
			t.Fatalf("order %d: %d pairs, want %d", n, len(pairs), n/2)
		}
		seen := make([]bool, n)
		for _, pr := range pairs {
			if len(pr) != 2 || pr[0] >= pr[1] {
				t.Fatalf("malformed pair %v", pr)
			}
			for _, e := range pr {
				if seen[e] {
					t.Fatalf("entity %d matched twice", e)
				}
				seen[e] = true
			}
		}
		for e, ok := range seen {
			if !ok {
				t.Fatalf("entity %d unmatched", e)
			}
		}
	}
}

func TestRefineGroupsBoundaryPreservesSizesAndImproves(t *testing.T) {
	m := comm.Stencil2DSparse(40, 40, 64, 8)
	const k = 4
	// Deliberately bad start: strided groups.
	groups := make([][]int, k)
	for e := 0; e < 1600; e++ {
		groups[e%k] = append(groups[e%k], e)
	}
	before := intraVolume(m, groups)
	refineGroupsBoundary(m, groups, 4)
	checkPartitionInvariants(t, groups, 1600, []int{400, 400, 400, 400})
	if after := intraVolume(m, groups); after < before {
		t.Errorf("boundary refinement worsened the cut: %v -> %v", before, after)
	}
}

func BenchmarkPartitionAcrossSparse(b *testing.B) {
	for _, side := range []int{72, 104} {
		m := comm.Stencil2DSparse(side, side, 64, 8)
		b.Run(fmt.Sprintf("order%d", side*side), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := partitionAcross(m, 8, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
