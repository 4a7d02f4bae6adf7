package treematch

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/comm"
)

// partitionShapes are the ≤256-entity inputs the sparse/dense bit-equality
// guarantee is pinned on: every existing generator family, odd and even k,
// padded and unpadded orders.
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
		{"stencil16x16-k4", comm.Stencil2D(16, 16, 64, 8), 4},
		{"stencil8x8-k2", comm.Stencil2D(8, 8, 64, 8), 2},
		{"stencil5x7-k3-padded", comm.Stencil2D(5, 7, 100, 10), 3},
		{"ring64-k8", comm.Ring(64, 3), 8},
		{"alltoall32-k4", allToAll(32, 2), 4},
		{"random100-k5", comm.Random(100, 0.15, 1000, 42), 5},
		{"random256-k8", comm.Random(256, 0.05, 500, 7), 8},
		{"lk23-2x2-k4", comm.LK23OpLevel(2, 2, 16, 16, 8), 4},
		{"empty48-k6", comm.New(48), 6},
	}
}

// TestPartitionAcrossSparseDenseBitEqual pins the acceptance criterion:
// the sparse path produces bit-identical partitions to the dense path on
// every existing test shape.
func TestPartitionAcrossSparseDenseBitEqual(t *testing.T) {
	for _, sh := range partitionShapes() {
		dg, err := PartitionAcross(sh.m, sh.k, Options{})
		if err != nil {
			t.Fatalf("%s dense: %v", sh.name, err)
		}
		sg, err := PartitionAcross(sh.m.ToSparse(), sh.k, Options{})
		if err != nil {
			t.Fatalf("%s sparse: %v", sh.name, err)
		}
		if !reflect.DeepEqual(dg, sg) {
			t.Errorf("%s: sparse partition differs from dense\ndense:  %v\nsparse: %v", sh.name, dg, sg)
		}
	}
}

func TestPartitionAcrossWeightedSparseDenseBitEqual(t *testing.T) {
	caps := [][]int{
		{8, 4, 4, 2},
		{16, 8},
		{3, 3, 3}, // equal: PartitionAcross path
		{5, 7, 11},
	}
	for _, sh := range partitionShapes() {
		if sh.m.Order() > 101 {
			continue // the weighted portfolio re-runs full KL per cap set; keep CI fast
		}
		for ci, cap := range caps {
			dg, err := PartitionAcrossWeighted(sh.m, cap, Options{})
			if err != nil {
				t.Fatalf("%s caps%d dense: %v", sh.name, ci, err)
			}
			sg, err := PartitionAcrossWeighted(sh.m.ToSparse(), cap, Options{})
			if err != nil {
				t.Fatalf("%s caps%d sparse: %v", sh.name, ci, err)
			}
			if !reflect.DeepEqual(dg, sg) {
				t.Errorf("%s caps %v: sparse weighted partition differs from dense", sh.name, cap)
			}
		}
	}
}

func TestGroupProcessesSparseDenseBitEqual(t *testing.T) {
	for _, sh := range partitionShapes() {
		p := sh.m.Order()
		for _, a := range []int{2, 4} {
			if p%a != 0 {
				continue
			}
			dg := GroupProcesses(sh.m, a, 2)
			sg := GroupProcesses(sh.m.ToSparse(), a, 2)
			if !reflect.DeepEqual(dg, sg) {
				t.Errorf("%s a=%d: sparse GroupProcesses differs from dense", sh.name, a)
			}
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

// TestMultilevelPartitionInvariants drives PartitionAcross above the
// multilevel threshold and checks exact cover, equal sizes, determinism,
// and that the cut beats a strided baseline on a lattice.
func TestMultilevelPartitionInvariants(t *testing.T) {
	m := comm.Stencil2DSparse(80, 80, 64, 8) // 6400 > multilevelMinOrder
	const k = 8
	groups, err := PartitionAcross(m, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = 6400 / k
	}
	checkPartitionInvariants(t, groups, 6400, sizes)

	again, err := PartitionAcross(m, k, Options{})
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
	groups, err := PartitionAcross(m, k, Options{})
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

func TestHeavyEdgeMatchingIsPerfect(t *testing.T) {
	for _, m := range []*comm.Matrix{
		comm.Stencil2DSparse(8, 8, 64, 8),
		comm.RandomSparse(100, 2, 10, 1),
		comm.NewSparse(10), // all isolated: leftover pairing only
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
				if _, err := PartitionAcross(m, 8, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkPartitionAcrossDense(b *testing.B) {
	// Same workload in dense storage: quantifies what the sparse
	// representation saves at identical partition quality (the two paths
	// are bit-identical).
	m := comm.Stencil2D(72, 72, 64, 8)
	b.Run("order5184", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PartitionAcross(m, 8, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
