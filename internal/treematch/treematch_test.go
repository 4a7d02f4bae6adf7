package treematch

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

// allToAll is the complete affinity graph on n entities, every pair
// exchanging vol.
func allToAll(n int, vol float64) *comm.Matrix {
	m := comm.New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			m.AddSym(i, j, vol)
		}
	}
	return m
}

func TestGroupProcessesPairs(t *testing.T) {
	// Two obvious pairs: 0-1 heavy, 2-3 heavy, light cross traffic.
	m := comm.New(4)
	m.AddSym(0, 1, 100)
	m.AddSym(2, 3, 100)
	m.AddSym(1, 2, 1)
	groups := GroupProcesses(m, 2, 2)
	if len(groups) != 2 {
		t.Fatalf("groups = %v", groups)
	}
	found01, found23 := false, false
	for _, g := range groups {
		if len(g) != 2 {
			t.Fatalf("group size = %d", len(g))
		}
		if g[0] == 0 && g[1] == 1 {
			found01 = true
		}
		if g[0] == 2 && g[1] == 3 {
			found23 = true
		}
	}
	if !found01 || !found23 {
		t.Errorf("expected pairs {0,1},{2,3}, got %v", groups)
	}
}

func TestGroupProcessesRefinementHelps(t *testing.T) {
	// A matrix engineered so pure greedy can go wrong: ring with one strong
	// chord. Whatever greedy does, refinement must not make it worse.
	m := comm.Ring(8, 10)
	m.AddSym(0, 4, 50)
	g0 := GroupProcesses(m, 4, 0)
	g2 := GroupProcesses(m, 4, 3)
	if intraVolume(m, g2) < intraVolume(m, g0) {
		t.Errorf("refinement decreased intra volume: %v -> %v",
			intraVolume(m, g0), intraVolume(m, g2))
	}
}

func TestGroupProcessesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for non-dividing arity")
		}
	}()
	GroupProcesses(comm.New(5), 2, 0)
}

// TestGroupProcessesPartition checks, property-style, that the output is
// always an exact partition with groups of the requested size.
func TestGroupProcessesPartition(t *testing.T) {
	f := func(seed int64, aSel uint8) bool {
		a := []int{2, 3, 4}[int(aSel)%3]
		p := a * 6
		m := comm.Random(p, 0.4, 100, seed)
		groups := GroupProcesses(m, a, 1)
		if len(groups) != 6 {
			return false
		}
		seen := make([]bool, p)
		for _, g := range groups {
			if len(g) != a {
				return false
			}
			for _, e := range g {
				if e < 0 || e >= p || seen[e] {
					return false
				}
				seen[e] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Error(err)
	}
}

func TestMapMatrixExactFit(t *testing.T) {
	tree := mustTree(t, 2, 2) // 4 leaves
	m := comm.New(4)
	m.AddSym(0, 2, 100) // 0-2 and 1-3 want to be close
	m.AddSym(1, 3, 100)
	m.AddSym(0, 1, 1)
	mp, err := MapMatrix(tree, m, Options{})
	if err != nil {
		t.Fatalf("MapMatrix: %v", err)
	}
	if mp.VirtualArity != 1 {
		t.Errorf("VirtualArity = %d, want 1", mp.VirtualArity)
	}
	// Assignment must be a bijection onto the 4 leaves.
	seen := make([]bool, 4)
	for i, leaf := range mp.Assignment {
		if leaf < 0 || leaf >= 4 || seen[leaf] {
			t.Fatalf("assignment %v not a bijection", mp.Assignment)
		}
		seen[leaf] = true
		if mp.Slot[i] != 0 {
			t.Errorf("slot[%d] = %d, want 0", i, mp.Slot[i])
		}
	}
	// The heavy pairs must share a subtree (distance 2, not 4).
	if d := tree.LeafDistance(mp.Assignment[0], mp.Assignment[2]); d != 2 {
		t.Errorf("heavy pair 0-2 at distance %d, want 2 (assignment %v)", d, mp.Assignment)
	}
	if d := tree.LeafDistance(mp.Assignment[1], mp.Assignment[3]); d != 2 {
		t.Errorf("heavy pair 1-3 at distance %d, want 2 (assignment %v)", d, mp.Assignment)
	}
}

func TestMapMatrixPadding(t *testing.T) {
	tree := mustTree(t, 2, 2) // 4 leaves, only 3 tasks
	m := comm.Ring(3, 10)
	mp, err := MapMatrix(tree, m, Options{})
	if err != nil {
		t.Fatalf("MapMatrix: %v", err)
	}
	if len(mp.Assignment) != 3 {
		t.Fatalf("assignment length = %d, want 3 (padding leaked)", len(mp.Assignment))
	}
	seen := map[int]bool{}
	for _, leaf := range mp.Assignment {
		if leaf < 0 || leaf >= 4 || seen[leaf] {
			t.Fatalf("assignment %v reuses or overflows leaves", mp.Assignment)
		}
		seen[leaf] = true
	}
}

func TestMapMatrixOversubscription(t *testing.T) {
	tree := mustTree(t, 2, 2) // 4 leaves, 9 tasks -> virtual arity 3
	m := comm.Ring(9, 10)
	mp, err := MapMatrix(tree, m, Options{})
	if err != nil {
		t.Fatalf("MapMatrix: %v", err)
	}
	if mp.VirtualArity != 3 {
		t.Errorf("VirtualArity = %d, want 3", mp.VirtualArity)
	}
	counts := map[int]int{}
	for i, leaf := range mp.Assignment {
		if leaf < 0 || leaf >= 4 {
			t.Fatalf("leaf %d out of range", leaf)
		}
		if s := mp.Slot[i]; s < 0 || s >= 3 {
			t.Fatalf("slot %d out of range", s)
		}
		counts[leaf]++
	}
	for leaf, c := range counts {
		if c > 3 {
			t.Errorf("leaf %d hosts %d tasks, max 3", leaf, c)
		}
	}
}

func TestMapMatrixEmptyAndSingle(t *testing.T) {
	tree := mustTree(t, 2, 2)
	mp, err := MapMatrix(tree, comm.New(0), Options{})
	if err != nil || len(mp.Assignment) != 0 {
		t.Errorf("empty matrix: %v %v", mp, err)
	}
	mp, err = MapMatrix(tree, comm.New(1), Options{})
	if err != nil || len(mp.Assignment) != 1 {
		t.Fatalf("single matrix: %v %v", mp, err)
	}
	if mp.Assignment[0] < 0 || mp.Assignment[0] >= 4 {
		t.Errorf("single task leaf = %d", mp.Assignment[0])
	}
}

// TestMapMatrixInjectiveWhenFits is the central safety property: when tasks
// fit the resources, no two tasks share a leaf.
func TestMapMatrixInjectiveWhenFits(t *testing.T) {
	tree := mustTree(t, 3, 2, 2) // 12 leaves
	f := func(seed int64, nSel uint8) bool {
		n := int(nSel%12) + 1
		m := comm.Random(n, 0.5, 50, seed)
		mp, err := MapMatrix(tree, m, Options{})
		if err != nil || mp.VirtualArity != 1 {
			return false
		}
		seen := map[int]bool{}
		for _, leaf := range mp.Assignment {
			if leaf < 0 || leaf >= 12 || seen[leaf] {
				return false
			}
			seen[leaf] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestTreeMatchBeatsRoundRobinOnStencil(t *testing.T) {
	// The paper's claim in miniature: for a stencil matrix on a NUMA-ish
	// tree, TreeMatch must cut the hop-weighted cost well below round-robin.
	tree := mustTree(t, 4, 4) // 4 sockets × 4 cores
	m := comm.Stencil2DSparse(4, 4, 1000, 10)
	mp, err := MapMatrix(tree, m, Options{})
	if err != nil {
		t.Fatalf("MapMatrix: %v", err)
	}
	tmCost := Cost(tree, m, mp.Assignment)
	rrCost := Cost(tree, m, RoundRobin(tree, m.Order()))
	if tmCost >= rrCost {
		t.Errorf("TreeMatch cost %v not below round-robin %v", tmCost, rrCost)
	}
	// The decisive locality metric is the volume that crosses sockets
	// (tree distance 4). Round-robin stripes row-major blocks across
	// sockets, cutting nearly every stencil edge; TreeMatch should tile the
	// grid and cut less than half as much.
	cut := func(assign []int) float64 {
		var s float64
		for i := 0; i < m.Order(); i++ {
			for j := 0; j < m.Order(); j++ {
				if i != j && tree.LeafDistance(assign[i], assign[j]) > 2 {
					s += m.At(i, j)
				}
			}
		}
		return s
	}
	// With tasks == leaves, round-robin degenerates to the identity (a
	// row-striped mapping) which keeps horizontal edges local, so the gap
	// is bounded: the optimal 2×2 tiling cuts 16200 vs 24360 for stripes.
	tmCut, rrCut := cut(mp.Assignment), cut(RoundRobin(tree, m.Order()))
	if tmCut > 0.7*rrCut {
		t.Errorf("TreeMatch inter-socket cut %v not well below round-robin %v", tmCut, rrCut)
	}
	// For this instance the optimal tiling (2×2 tiles per socket) cuts
	// exactly 8 edges and 10 corners both ways; TreeMatch should find it.
	if want := 2 * (8*1000.0 + 10*10.0); tmCut > want+1e-9 {
		t.Errorf("TreeMatch cut %v, optimal tiling cuts %v", tmCut, want)
	}
}

func TestCostZeroWhenColocated(t *testing.T) {
	tree := mustTree(t, 2)
	m := allToAll(3, 5)
	all0 := []int{0, 0, 0}
	if got := Cost(tree, m, all0); got != 0 {
		t.Errorf("co-located cost = %v, want 0", got)
	}
	spread := []int{0, 1, 0}
	if got := Cost(tree, m, spread); got <= 0 {
		t.Errorf("spread cost = %v, want > 0", got)
	}
}

func TestRoundRobinShape(t *testing.T) {
	tree := mustTree(t, 2, 2)
	rr := RoundRobin(tree, 10)
	for i, leaf := range rr {
		if leaf != i%4 {
			t.Errorf("rr[%d] = %d", i, leaf)
		}
	}
}

// FuzzMapReadMatrix fuzzes what `treemap -matrix` does with a file: every
// matrix comm.Read accepts, asymmetric ones included, must map onto a
// 16-leaf tree without panicking. It lives here rather than beside
// comm's FuzzReadMatrix, whose inputs seed it, because comm cannot import
// treematch.
func FuzzMapReadMatrix(f *testing.F) {
	for _, seed := range []string{
		"2\n0 1\n1 0\n",
		"3\n0 1 2 # a\n1 0 3\n2 3 0 # c\n",
		"# comment\n1\n\n5\n",
		"0\n",
		"4000000000\n",
		"2\n0 NaN\n1 0\n",
		"1\n1e400\n",
		"3\n0 -5 1\n-5 0 2\n1 2 0\n",
		"2\n-0 1\n1 -0\n",
	} {
		f.Add(seed)
	}
	tree, err := NewTree([]int{2, 2, 2, 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in string) {
		m, err := comm.Read(strings.NewReader(in))
		if err != nil || m.Order() > 32 {
			return
		}
		_, _ = MapMatrix(tree, m, Options{})
	})
}
