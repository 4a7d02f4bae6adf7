package treematch

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/topology"
)

// ringMatrix is a ring of heavy neighbour traffic plus a light long pair.
func ringMatrix(t *testing.T, n int) *comm.Matrix {
	t.Helper()
	m := comm.New(n)
	for i := 0; i < n; i++ {
		m.AddSym(i, (i+1)%n, 50)
	}
	m.AddSym(0, n/2, 0.5)
	return m
}

// strideRingMatrix is ringMatrix with the entities renamed by i → 3i mod n,
// so ring neighbours sit three leaves apart under the identity assignment and
// the matcher has to move them. n must not be a multiple of 3.
func strideRingMatrix(n int) *comm.Matrix {
	m := comm.New(n)
	for i := 0; i < n; i++ {
		m.AddSym(i*3%n, (i+1)*3%n, 50)
	}
	m.AddSym(0, n/2, 0.5)
	return m
}

// TestAssignByDistanceMatchesClassedOnTrees pins the bit-stability of the
// tree-hop model: AssignClassed — now AssignByDistance over the tree's hop
// matrix — reproduces the assignments the dedicated classed tree matcher
// produced before the two were merged (goldens captured at that revision),
// classes present or not, on balanced fabrics, A11's default pod shape and
// the [2 2 2] instance of TestAssignClassed.
func TestAssignByDistanceMatchesClassedOnTrees(t *testing.T) {
	identity8 := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, c := range []struct {
		spec                  string
		stride, strideClassed []int // goldens for strideRingMatrix
	}{
		{"cluster:4 pack:1 core:2", []int{0, 1, 2, 3}, []int{0, 1, 2, 3}},
		{"rack:2 node:4 pack:1 core:2", []int{0, 5, 3, 1, 6, 2, 4, 7}, []int{0, 5, 2, 1, 6, 3, 4, 7}},
		{"pod:2 rack:2 node:2 pack:1 core:2", []int{0, 5, 3, 1, 6, 2, 4, 7}, []int{0, 5, 2, 1, 6, 3, 4, 7}},
		{"pod:2 rack:2 node:2{pack:2 l3:1 core:4 pu:1 | pack:1 l3:1 core:4 pu:1}",
			[]int{0, 5, 3, 1, 6, 2, 4, 7}, []int{0, 5, 2, 1, 6, 3, 4, 7}},
	} {
		plat, err := topology.ParsePlatform(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		fused, err := plat.FusedSpec()
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		topo, err := topology.FromSpec(fused)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		tree, err := FabricTree(topo)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		n := tree.Leaves()
		zero, alternating := make([]int, n), make([]int, n)
		for i := range alternating {
			alternating[i] = i % 2
		}
		for _, run := range []struct {
			m       *comm.Matrix
			classes []int
			want    []int
		}{
			// A plain ring is already local under the identity.
			{ringMatrix(t, n), zero, identity8[:n]},
			{ringMatrix(t, n), alternating, identity8[:n]},
			{strideRingMatrix(n), zero, c.stride},
			{strideRingMatrix(n), alternating, c.strideClassed},
		} {
			got, err := AssignClassed(tree, run.m, run.classes, run.classes)
			if err != nil {
				t.Fatalf("%s: AssignClassed: %v", c.spec, err)
			}
			if !reflect.DeepEqual(got, run.want) {
				t.Errorf("%s (classes %v): assignment %v, want %v", c.spec, run.classes, got, run.want)
			}
			// No classes and one class for everybody are the same problem.
			if run.classes[n-1] == 0 {
				unclassed, err := AssignByDistance(tree.distanceMatrix(), run.m, nil, nil)
				if err != nil || !reflect.DeepEqual(unclassed, got) {
					t.Errorf("%s: nil classes give %v (%v), one class %v", c.spec, unclassed, err, got)
				}
			}
		}
	}

	tree, err := NewTree([]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m := comm.New(8)
	for _, pr := range [][2]int{{0, 5}, {1, 4}, {2, 7}, {3, 6}} {
		m.AddSym(pr[0], pr[1], 100)
	}
	classes := []int{0, 1, 0, 1, 0, 1, 0, 1}
	got, err := AssignClassed(tree, m, classes, classes)
	if want := []int{0, 3, 4, 7, 2, 1, 6, 5}; err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("[2 2 2] pairs: assignment %v (%v), want %v", got, err, want)
	}
}

// TestAssignByDistanceOnTorus checks that the distance matcher beats round
// robin under a routed torus distance model with ring traffic.
func TestAssignByDistanceOnTorus(t *testing.T) {
	topo, err := topology.FromSpec("torus:4x4 pack:1 core:1")
	if err != nil {
		t.Fatal(err)
	}
	dist := topo.FabricGraph().LatencyMatrix()
	n := len(dist)
	m := ringMatrix(t, n)
	seed, err := SFCSeed([]int{4, 4}, m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AssignByDistance(dist, m, nil, nil, seed)
	if err != nil {
		t.Fatal(err)
	}
	identity := make([]int, n)
	for i := range identity {
		identity[i] = i
	}
	if c, rr := DistanceCost(dist, m, got), DistanceCost(dist, m, identity); c > rr {
		t.Errorf("matched cost %v worse than identity %v", c, rr)
	}
	seen := make([]bool, n)
	for _, l := range got {
		if l < 0 || l >= n || seen[l] {
			t.Fatalf("assignment %v is not a permutation", got)
		}
		seen[l] = true
	}
}

func TestAssignByDistanceUneven(t *testing.T) {
	// rack:2 node:2,3 — the uneven shape FabricTree refuses (ErrUneven);
	// the distance model handles it through the routed tree graph. The
	// heavy pair must land inside one rack, not across the uplink.
	topo, err := topology.FromSpec("rack:2 node:2,3 pack:1 core:2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FabricTree(topo); err == nil {
		t.Fatal("FabricTree accepted an uneven fabric; the distance path is untested")
	}
	g := topo.FabricGraph()
	dist := g.LatencyMatrix()
	m := comm.New(5)
	m.AddSym(0, 1, 500) // heavy pair
	m.AddSym(2, 3, 0.5)
	got, err := AssignByDistance(dist, m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dist[got[0]][got[1]] != dist[0][1] {
		t.Errorf("heavy pair placed at distance %v, want intra-rack %v (assignment %v)",
			dist[got[0]][got[1]], dist[0][1], got)
	}
}

func TestAssignByDistanceSeedValidation(t *testing.T) {
	dist := [][]float64{{0, 1}, {1, 0}}
	m := comm.New(2)
	m.AddSym(0, 1, 2.5)
	inf, nan := math.Inf(1), math.NaN()
	chain := comm.New(3)
	chain.AddSym(0, 1, 2.5)
	chain.AddSym(1, 2, 2.5)
	for _, c := range []struct {
		name    string
		dist    [][]float64
		m       *comm.Matrix
		classes []int
		seed    []int
		wantErr string
	}{
		{"short seed", dist, m, nil, []int{0}, "seed 0 has 1 entries"},
		{"non-permutation seed", dist, m, nil, []int{0, 0}, "not a permutation"},
		{"class-violating seed", dist, m, []int{0, 1}, []int{1, 0}, "wrong class"},
		// Used to leave no cheapest leaf (every increment +Inf) and index
		// used[-1].
		{"unreachable leaves", [][]float64{{0, inf, inf}, {inf, 0, inf}, {inf, inf, 0}}, chain, nil, nil, "leaves 0 and 1 is +Inf"},
		{"NaN distance", [][]float64{{0, 1}, {nan, 0}}, m, nil, nil, "leaves 1 and 0 is NaN"},
		{"-Inf distance", [][]float64{{0, math.Inf(-1)}, {1, 0}}, m, nil, nil, "leaves 0 and 1 is -Inf"},
		{"negative distance", [][]float64{{0, 1}, {-2, 0}}, m, nil, nil, "leaves 1 and 0 is -2"},
		// The swap refinement reads dist[a][b] for dist[b][a].
		{"asymmetric distance", [][]float64{{0, 1, 2}, {1, 0, 3}, {2, 4, 0}}, chain, nil, nil, "leaves 1 and 2 is 3 one way and 4 back"},
	} {
		var seeds [][]int
		if c.seed != nil {
			seeds = append(seeds, c.seed)
		}
		_, err := AssignByDistance(c.dist, c.m, c.classes, c.classes, seeds...)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.wantErr)
		}
	}
}
