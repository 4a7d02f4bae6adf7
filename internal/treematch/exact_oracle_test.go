package treematch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/comm"
	"repro/internal/topology"
)

// oracleAssignByDistance is AssignByDistance as it stood before the exact
// search learned about twin leaves and sparse increments: the same incumbent
// portfolio, then a branch-and-bound that tries every class-compatible free
// leaf at every node and re-scans all earlier positions for each increment.
// It is the reference the fast search must match assignment for assignment —
// equal cost is not enough, the committed artifacts pin which of several
// optima comes back. Input validation is left to AssignByDistance; the
// second result counts the calls of rec.
func oracleAssignByDistance(dist [][]float64, m *comm.Matrix, entityClass, leafClass []int, seeds ...[]int) ([]int, int) {
	p := m.Order()
	if entityClass == nil {
		entityClass = make([]int, p)
	}
	if leafClass == nil {
		leafClass = make([]int, p)
	}
	entityPerClass := map[int]int{}
	for i := 0; i < p; i++ {
		entityPerClass[entityClass[i]]++
	}

	aff, vol := freshPairAffinity(m)
	order := freshAffinityOrder(aff, vol)

	used := make([]bool, p)
	assignment := make([]int, p)
	increment := func(pos int, e, leaf int) float64 {
		s := 0.0
		for q := 0; q < pos; q++ {
			partner := order[q]
			if a := aff[e][partner]; a != 0 {
				s += a * dist[leaf][assignment[partner]]
			}
		}
		return s
	}
	for pos, e := range order {
		bestLeaf, bestInc := -1, math.Inf(1)
		for l := 0; l < p; l++ {
			if used[l] || leafClass[l] != entityClass[e] {
				continue
			}
			if inc := increment(pos, e, l); inc < bestInc {
				bestLeaf, bestInc = l, inc
			}
		}
		used[bestLeaf] = true
		assignment[e] = bestLeaf
	}
	refineDistanceSwaps(dist, aff, entityClass, assignment)
	best := append([]int(nil), assignment...)
	bestCost := DistanceCost(dist, m, best)

	for _, seed := range seeds {
		cand := append([]int(nil), seed...)
		refineDistanceSwaps(dist, aff, entityClass, cand)
		if c := DistanceCost(dist, m, cand); c < bestCost {
			best, bestCost = cand, c
		}
	}

	space := 1.0
	for _, n := range entityPerClass {
		for f := 2; f <= n; f++ {
			space *= float64(f)
		}
	}
	if space > classedSearchLimit {
		return best, 0
	}

	copy(assignment, best)
	for i := range used {
		used[i] = false
	}
	nodes := 0
	var rec func(pos int, cost float64)
	rec = func(pos int, cost float64) {
		nodes++
		if cost >= bestCost {
			return // the increment is nonnegative, so the partial cost bounds
		}
		if pos == p {
			bestCost = cost
			copy(best, assignment)
			return
		}
		e := order[pos]
		for l := 0; l < p; l++ {
			if used[l] || leafClass[l] != entityClass[e] {
				continue
			}
			used[l] = true
			assignment[e] = l
			rec(pos+1, cost+increment(pos, e, l))
			used[l] = false
		}
	}
	rec(0, 0)
	return best, nodes
}

// freshAssignByDistance is the distance matcher as it stood before a Mapper
// kept its tables: every call allocates its affinities, order, assignments
// and search tables anew, and the search recurses in a closure. It is the
// oracle a reused Mapper must match bit for bit; it returns the search's
// node count as assignByDistance does.
func freshAssignByDistance(dist [][]float64, m *comm.Matrix, entityClass, leafClass []int, seeds [][]int) ([]int, int, error) {
	p := m.Order()
	if len(dist) != p {
		return nil, 0, fmt.Errorf("treematch: AssignByDistance maps %d entities over a %d-leaf distance matrix", p, len(dist))
	}
	for a, row := range dist {
		if len(row) != p {
			return nil, 0, fmt.Errorf("treematch: AssignByDistance distance matrix is not square")
		}
		for b, d := range row {
			if !(d >= 0) || math.IsInf(d, 1) {
				return nil, 0, fmt.Errorf("treematch: AssignByDistance distance between leaves %d and %d is %v, want finite and nonnegative", a, b, d)
			}
			if b < a && d != dist[b][a] {
				return nil, 0, fmt.Errorf("treematch: AssignByDistance distance between leaves %d and %d is %v one way and %v back, want symmetric", b, a, dist[b][a], d)
			}
		}
	}
	// The constrained permutation space is the product of the per-class
	// factorials; without classes that is one class of everybody, which
	// needs no counting and one shared all-zero class slice.
	space := 1.0
	if entityClass == nil && leafClass == nil {
		entityClass = make([]int, p)
		leafClass = entityClass
		space = factorial(p)
	} else {
		if entityClass == nil {
			entityClass = make([]int, p)
		}
		if leafClass == nil {
			leafClass = make([]int, p)
		}
		if len(entityClass) != p || len(leafClass) != p {
			return nil, 0, fmt.Errorf("treematch: AssignByDistance got %d entity classes and %d leaf classes for %d entities",
				len(entityClass), len(leafClass), p)
		}
		entityPerClass := map[int]int{}
		leavesPerClass := map[int]int{}
		for i := 0; i < p; i++ {
			entityPerClass[entityClass[i]]++
			leavesPerClass[leafClass[i]]++
		}
		for c, n := range entityPerClass {
			if leavesPerClass[c] != n {
				return nil, 0, fmt.Errorf("treematch: AssignByDistance class %d has %d entities but %d leaves", c, n, leavesPerClass[c])
			}
			space *= factorial(n)
		}
		if len(entityPerClass) != len(leavesPerClass) {
			return nil, 0, fmt.Errorf("treematch: AssignByDistance classes mismatch: %d entity classes, %d leaf classes",
				len(entityPerClass), len(leavesPerClass))
		}
	}

	aff, vol := freshPairAffinity(m)
	order := freshAffinityOrder(aff, vol)

	// Greedy incumbent. Alone it can fall into the identity when heavy
	// partners are placed after each other (both unplaced, so their affinity
	// never informs a choice); the swap pass pulls such partners back
	// together.
	used := make([]bool, p)
	assignment := make([]int, p)
	increment := func(pos int, e, leaf int) float64 {
		s := 0.0
		for q := 0; q < pos; q++ {
			partner := order[q]
			if a := aff[e][partner]; a != 0 {
				s += float64(a * dist[leaf][assignment[partner]])
			}
		}
		return s
	}
	for pos, e := range order {
		bestLeaf, bestInc := -1, math.Inf(1)
		for l := 0; l < p; l++ {
			if used[l] || leafClass[l] != entityClass[e] {
				continue
			}
			if inc := increment(pos, e, l); inc < bestInc {
				bestLeaf, bestInc = l, inc
			}
		}
		used[bestLeaf] = true
		assignment[e] = bestLeaf
	}
	refineDistanceSwaps(dist, aff, entityClass, assignment)
	best := append([]int(nil), assignment...)
	bestCost := DistanceCost(dist, m, best)

	// Seed candidates: refine each and keep the cheapest (strictly better
	// than the incumbent, so the greedy solution wins ties).
	for si, seed := range seeds {
		if len(seed) != p {
			return nil, 0, fmt.Errorf("treematch: AssignByDistance seed %d has %d entries for %d entities", si, len(seed), p)
		}
		taken := make([]bool, p)
		for e, l := range seed {
			if l < 0 || l >= p || taken[l] {
				return nil, 0, fmt.Errorf("treematch: AssignByDistance seed %d is not a permutation of the leaves", si)
			}
			taken[l] = true
			if leafClass[l] != entityClass[e] {
				return nil, 0, fmt.Errorf("treematch: AssignByDistance seed %d places entity %d on a leaf of the wrong class", si, e)
			}
		}
		cand := append([]int(nil), seed...)
		refineDistanceSwaps(dist, aff, entityClass, cand)
		if c := DistanceCost(dist, m, cand); c < bestCost {
			best, bestCost = cand, c
		}
	}

	if space > classedSearchLimit {
		return best, 0, nil
	}
	for i := range used {
		used[i] = false
	}
	off, partners, prevTwin := freshSearchTables(dist, aff, order, leafClass)
	nodes := 0
	var rec func(pos int, cost float64)
	rec = func(pos int, cost float64) {
		nodes++
		if cost >= bestCost {
			return // the increment is nonnegative, so the partial cost bounds
		}
		if pos == p {
			bestCost = cost
			copy(best, assignment)
			return
		}
		e := order[pos]
		affE, placed := aff[e], partners[off[pos]:off[pos+1]]
		for l, prev := range prevTwin {
			// Lowest-first choice and last-in-first-out release keep the
			// used leaves of a twin class a prefix of it, so l is its
			// lowest unused leaf exactly when the twin below is taken.
			if used[l] || leafClass[l] != entityClass[e] || (prev >= 0 && !used[prev]) {
				continue
			}
			inc := 0.0
			for _, partner := range placed {
				inc += float64(affE[partner] * dist[l][assignment[partner]])
			}
			used[l] = true
			assignment[e] = l
			rec(pos+1, cost+inc)
			used[l] = false
		}
	}
	rec(0, 0)
	return best, nodes, nil
}

// freshSearchTables is searchTables in a block of its own.
func freshSearchTables(dist, aff [][]float64, order, leafClass []int) (off, partners, prevTwin []int) {
	p := len(order)
	pairs := 0
	for i, row := range aff {
		for _, a := range row[:i] {
			if a != 0 {
				pairs++
			}
		}
	}
	block := make([]int, p+1+pairs+p)
	off, partners, prevTwin = block[:p+1], block[p+1:p+1:p+1+pairs], block[p+1+pairs:]
	for pos, e := range order {
		for _, partner := range order[:pos] {
			if aff[e][partner] != 0 {
				partners = append(partners, partner)
			}
		}
		off[pos+1] = len(partners)
	}
	for l := range prevTwin {
		prevTwin[l] = -1
		for t := l - 1; t >= 0 && prevTwin[l] < 0; t-- {
			if isTwin(dist, leafClass, l, t) {
				prevTwin[l] = t
			}
		}
	}
	return off, partners, prevTwin
}

// freshPairAffinity is pairAffinity into fresh tables.
func freshPairAffinity(m *comm.Matrix) (aff [][]float64, vol []float64) {
	p := m.Order()
	aff = make([][]float64, p)
	for i := range aff {
		aff[i] = make([]float64, p)
		for j := range aff[i] {
			if i != j {
				aff[i][j] = m.At(i, j) + m.At(j, i)
			}
		}
	}
	vol = make([]float64, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			vol[i] += aff[i][j]
		}
	}
	return aff, vol
}

// freshAffinityOrder is affinityOrder with fresh order, marks and scores.
func freshAffinityOrder(aff [][]float64, vol []float64) []int {
	p := len(aff)
	order := make([]int, 0, p)
	placed := make([]bool, p)
	score := make([]float64, p)
	for len(order) < p {
		pick := -1
		for i := 0; i < p; i++ {
			if placed[i] {
				continue
			}
			if pick < 0 || score[i] > score[pick] ||
				(score[i] == score[pick] && vol[i] > vol[pick]) {
				pick = i
			}
		}
		placed[pick] = true
		order = append(order, pick)
		for j := 0; j < p; j++ {
			if !placed[j] {
				score[j] += aff[pick][j]
			}
		}
	}
	return order
}

// requireOracle fails unless the fast search and the oracle return the same
// assignment, and returns the two node counts.
func requireOracle(t *testing.T, name string, dist [][]float64, m *comm.Matrix, entityClass, leafClass []int, seeds ...[]int) (fast, naive int) {
	t.Helper()
	got, fast, err := new(Mapper).assignByDistance(dist, m, entityClass, leafClass, seeds)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, naive := oracleAssignByDistance(dist, m, entityClass, leafClass, seeds...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: assignment %v, oracle %v (dist %v)", name, got, want, dist)
	}
	if fast > naive {
		t.Errorf("%s: %d search nodes, the oracle needs only %d", name, fast, naive)
	}
	return fast, naive
}

// coreHops is the hop-distance model between the given cores of a machine,
// what placement.mapOntoFreeCores hands to AssignByDistance.
func coreHops(t *testing.T, spec string, cores []int) [][]float64 {
	t.Helper()
	topo, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	dist := make([][]float64, len(cores))
	for i, ci := range cores {
		dist[i] = make([]float64, len(cores))
		for j, cj := range cores {
			if i != j {
				dist[i][j] = float64(topo.HopDistance(topo.Cores()[ci], topo.Cores()[cj]))
			}
		}
	}
	return dist
}

// twinChains is the twin partition searchTables computes (nil: one class),
// with no affinities to list.
func twinChains(dist [][]float64, leafClass []int) []int {
	p := len(dist)
	if leafClass == nil {
		leafClass = make([]int, p)
	}
	order, aff := make([]int, p), make([][]float64, p)
	for i := range order {
		order[i], aff[i] = i, make([]float64, p)
	}
	var d distanceSet
	d.searchTables(dist, aff, order, leafClass)
	return d.prevTwin
}

func treeHops(t *testing.T, arities []int) [][]float64 {
	t.Helper()
	tree, err := NewTree(arities)
	if err != nil {
		t.Fatal(err)
	}
	return tree.distanceMatrix()
}

func zeroPadded(t *testing.T, m *comm.Matrix, order int) *comm.Matrix {
	t.Helper()
	ext, err := m.ExtendZero(order)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

// randomSymmetric draws a symmetric distance matrix with a zero diagonal:
// non-integer values, from a pool of `levels` distinct ones when levels > 0
// (exact ties, hence twins) and all different otherwise.
func randomSymmetric(rng *rand.Rand, p, levels int) [][]float64 {
	pool := make([]float64, levels)
	for i := range pool {
		pool[i] = 0.25 + 3*rng.Float64()
	}
	dist := make([][]float64, p)
	for a := range dist {
		dist[a] = make([]float64, p)
	}
	for a := 0; a < p; a++ {
		for b := a + 1; b < p; b++ {
			d := 0.25 + 3*rng.Float64()
			if levels > 0 {
				d = pool[rng.Intn(levels)]
			}
			dist[a][b], dist[b][a] = d, d
		}
	}
	return dist
}

// classedPerm is a random permutation of the leaves that keeps every entity
// on a leaf of its class (classes nil: any permutation).
func classedPerm(rng *rand.Rand, entityClass, leafClass []int, p int) []int {
	perm := rng.Perm(p)
	if entityClass == nil {
		return perm
	}
	out := make([]int, p)
	taken := make([]bool, p)
	for e := range out {
		for _, l := range perm {
			if !taken[l] && leafClass[l] == entityClass[e] {
				out[e], taken[l] = l, true
				break
			}
		}
	}
	return out
}

// TestExactSearchMatchesOracle is the differential pin of the fast exact
// search: slice-equal assignments against the search it replaced, on the
// distance models the repo feeds it and on random ones.
func TestExactSearchMatchesOracle(t *testing.T) {
	const node = "pack:2 core:4"
	stencil := comm.Stencil2DSparse(4, 2, 4096, 512)

	// Every free-slot view of one node, 2 to 8 cores: the whole job when it
	// fits, and a 2-task pair plus dummies, as mapOntoFreeCores pads them.
	pruned := false
	for mask := 1; mask < 1<<8; mask++ {
		var cores []int
		for c := 0; c < 8; c++ {
			if mask&(1<<c) != 0 {
				cores = append(cores, c)
			}
		}
		k := len(cores)
		if k < 2 {
			continue
		}
		dist := coreHops(t, node, cores)
		pair := comm.New(2)
		pair.AddSym(0, 1, 7)
		scrambled := comm.New(k)
		for i := 0; i < k; i++ {
			scrambled.AddSym(i*3%k, (i*3+1)%k, float64(10+i))
		}
		for name, m := range map[string]*comm.Matrix{
			"ring": comm.Ring(k, 100), "pair+dummies": zeroPadded(t, pair, k), "scrambled": scrambled,
		} {
			fast, naive := requireOracle(t, name, dist, m, nil, nil)
			pruned = pruned || fast < naive
		}
		if k == 8 {
			requireOracle(t, "stencil", dist, stencil, nil, nil)
			requireOracle(t, "6 tasks + 2 dummies", dist, zeroPadded(t, comm.Stencil2DSparse(3, 2, 4096, 512), 8), nil, nil)
		}
	}
	if !pruned {
		t.Error("no free-slot view of pack:2 core:4 had a twin to prune: the fast path is not exercised")
	}

	// Capacity classes: two of 4 (A11's shape) and two of 6, interleaved
	// and blocked, with seeded portfolios.
	rng := rand.New(rand.NewSource(18))
	for _, c := range []struct {
		name    string
		arities []int
	}{{"2 classes of 4", []int{2, 2, 2}}, {"2 classes of 6", []int{2, 3, 2}}} {
		dist := treeHops(t, c.arities)
		p := len(dist)
		interleaved, blocked := make([]int, p), make([]int, p)
		for i := range interleaved {
			interleaved[i] = i % 2
			blocked[i] = i * 2 / p
		}
		for _, classes := range [][]int{interleaved, blocked} {
			stride := comm.New(p) // 5 is coprime to 8 and to 12
			for i := 0; i < p; i++ {
				stride.AddSym(i*5%p, (i+1)*5%p, 50)
			}
			for _, m := range []*comm.Matrix{stride, comm.RandomSparse(p, 3, 100, 5)} {
				requireOracle(t, c.name, dist, m, classes, classes)
				requireOracle(t, c.name+" seeded", dist, m, classes, classes,
					classedPerm(rng, classes, classes, p), classedPerm(rng, classes, classes, p))
			}
		}
	}

	// A torus has no twins at all: nothing to prune, nothing to get wrong.
	topo, err := topology.FromSpec("torus:3x3 pack:1 core:1")
	if err != nil {
		t.Fatal(err)
	}
	torus := topo.FabricGraph().LatencyMatrix()
	for l, tw := range twinChains(torus, nil) {
		if tw >= 0 {
			t.Errorf("torus nodes %d and %d are twins", tw, l)
		}
	}
	torusRing := comm.New(9)
	for i := 0; i < 9; i++ {
		torusRing.AddSym(i*2%9, (i+1)*2%9, 50)
	}
	requireOracle(t, "torus", torus, torusRing, nil, nil)
	requireOracle(t, "torus seeded", torus, torusRing, nil, nil, rng.Perm(9))

	// Random symmetric non-integer models, with exact ties (twins appear)
	// and without, unclassed and classed, seeded and not.
	check := func(seed int64, size, levels uint8, classed, seeded bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + int(size)%7
		dist := randomSymmetric(rng, p, int(levels)%3)
		m := comm.RandomSparse(p, 1+rng.Intn(p), 50, seed)
		var classes []int
		if classed {
			classes = make([]int, p)
			for i := range classes {
				classes[i] = rng.Intn(2)
			}
		}
		var seeds [][]int
		if seeded {
			seeds = append(seeds, classedPerm(rng, classes, classes, p))
		}
		requireOracle(t, "random", dist, m, classes, classes, seeds...)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// TestPrevTwins checks the twin partition itself: cores under one pack are
// chained lowest first, a class boundary or a single differing column
// splits a chain, chains are transitive, and a generic matrix has none.
func TestPrevTwins(t *testing.T) {
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	for _, c := range []struct {
		name      string
		dist      [][]float64
		leafClass []int
		want      []int
	}{
		{"pack:2 core:4", coreHops(t, "pack:2 core:4", all), nil, []int{-1, 0, 1, 2, -1, 4, 5, 6}},
		{"free cores 1,2,5", coreHops(t, "pack:2 core:4", []int{1, 2, 5}), nil, []int{-1, 0, -1}},
		// Two leaves have no third leaf to tell them apart.
		{"free cores 0,4", coreHops(t, "pack:2 core:4", []int{0, 4}), nil, []int{-1, 0}},
		{"classes split a pack", coreHops(t, "pack:2 core:4", all), []int{0, 1, 0, 1, 0, 0, 1, 1}, []int{-1, -1, 0, 1, -1, 4, -1, 6}},
		{"[2 2 2] tree", treeHops(t, []int{2, 2, 2}), nil, []int{-1, 0, -1, 2, -1, 4, -1, 6}},
		{"generic", randomSymmetric(rand.New(rand.NewSource(3)), 7, 0), nil, []int{-1, -1, -1, -1, -1, -1, -1}},
		// Leaves 0 and 1 agree on every third leaf but 3 sees them at
		// different distances: one column apart, not twins.
		{"one column apart", [][]float64{{0, 1, 2, 5}, {1, 0, 2, 5}, {2, 2, 0, 5}, {5, 6, 5, 0}}, nil, []int{-1, -1, -1, -1}},
		{"one row apart", [][]float64{{0, 1, 2, 5}, {1, 0, 2, 6}, {2, 2, 0, 5}, {5, 5, 5, 0}}, nil, []int{-1, -1, -1, -1}},
	} {
		got := twinChains(c.dist, c.leafClass)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: previous twins %v, want %v", c.name, got, c.want)
		}
	}

	// Transitivity on tie-rich random models: following the chain down from
	// l reaches exactly the lower leaves isTwin pairs it with.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		p := 3 + rng.Intn(6)
		dist := randomSymmetric(rng, p, 1+rng.Intn(2))
		leafClass := make([]int, p)
		for i := range leafClass {
			leafClass[i] = rng.Intn(2)
		}
		prev := twinChains(dist, leafClass)
		for l := 0; l < p; l++ {
			onChain := make([]bool, p)
			for tw := prev[l]; tw >= 0; tw = prev[tw] {
				onChain[tw] = true
			}
			for x := 0; x < l; x++ {
				if onChain[x] != isTwin(dist, leafClass, l, x) {
					t.Fatalf("trial %d: leaf %d chain %v disagrees with isTwin on leaf %d (dist %v classes %v)",
						trial, l, prev, x, dist, leafClass)
				}
			}
		}
	}
}

// TestExactSearchWork pins the work the twin rule saves where the scheduler
// spends its time: a full 8-task stencil on a free pack:2 core:4 node.
func TestExactSearchWork(t *testing.T) {
	dist := coreHops(t, "pack:2 core:4", []int{0, 1, 2, 3, 4, 5, 6, 7})
	fast, naive := requireOracle(t, "stencil", dist, comm.Stencil2DSparse(4, 2, 4096, 512), nil, nil)
	if fast > 500 {
		t.Errorf("exact search visited %d nodes, want <= 500", fast)
	}
	if naive < 20000 {
		t.Errorf("the every-leaf search visited only %d nodes: the instance no longer shows the saving", naive)
	}
}

// FuzzAssignByDistanceExact decodes bytes into a small instance — order,
// tie-rich symmetric distances, sparse affinities, optional classes and an
// optional seed — and requires the fast search to match the oracle.
func FuzzAssignByDistanceExact(f *testing.F) {
	f.Add([]byte{8, 0, 1, 1, 1, 2, 2, 2, 2, 1, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{5, 3, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 200, 3, 0, 7, 1, 5})
	f.Add([]byte{9, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		p := 2 + next()%8
		mode := next()
		dist := make([][]float64, p)
		for a := range dist {
			dist[a] = make([]float64, p)
		}
		for a := 0; a < p; a++ {
			for b := a + 1; b < p; b++ {
				d := float64(next()%4) * 0.75
				dist[a][b], dist[b][a] = d, d
			}
		}
		var classes []int
		if mode&1 != 0 {
			classes = make([]int, p)
			for i := range classes {
				classes[i] = next() % 2
			}
		}
		var seeds [][]int
		if mode&2 != 0 {
			seeds = append(seeds, classedPerm(rand.New(rand.NewSource(int64(next()))), classes, classes, p))
		}
		m := comm.New(p)
		for len(data) >= 3 {
			i, j, v := next()%p, next()%p, next()
			if i != j {
				m.AddSym(i, j, float64(v)/6)
			}
		}
		requireOracle(t, "fuzz", dist, m, classes, classes, seeds...)
	})
}

// TestMapperAssignByDistanceMatchesFresh runs random instances through one
// Mapper — orders that grow and shrink between 2 and 11 (past the exact
// search's limit), with and without classes, with several seeds each, tie-rich
// and tie-free distances, and a rejected seed between them — and requires
// every assignment and search-node count to equal the fresh matcher's, and no
// result to change while the Mapper maps on.
func TestMapperAssignByDistanceMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	var w Mapper
	type kept struct{ got, want []int }
	var all []kept
	orders := []int{2, 5, 9, 11, 8, 3, 7, 11, 4, 2, 10, 6}
	for round := 0; round < 12; round++ {
		for _, p := range orders {
			dist := randomSymmetric(rng, p, round%3)
			m := comm.RandomSparse(p, 1+round%3, 50, rng.Int63())
			var entityClass, leafClass []int
			if round%2 == 1 {
				entityClass, leafClass = make([]int, p), make([]int, p)
				for i := range entityClass {
					entityClass[i] = i % 2
					leafClass[p-1-i] = i % 2
				}
				if round%4 == 3 {
					entityClass = nil // one class, named on one side only
					clear(leafClass)
				}
			}
			var seeds [][]int
			for k := 0; k < round%4; k++ {
				seeds = append(seeds, classedPerm(rng, entityClass, leafClass, p))
			}
			if round%5 == 4 {
				if _, _, err := w.assignByDistance(dist, m, entityClass, leafClass, [][]int{make([]int, p)}); err == nil && p > 1 {
					t.Fatalf("order %d: a seed of one repeated leaf was accepted", p)
				}
			}
			got, nodes, err := w.assignByDistance(dist, m, entityClass, leafClass, seeds)
			if err != nil {
				t.Fatal(err)
			}
			want, wantNodes, err := freshAssignByDistance(dist, m, entityClass, leafClass, seeds)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || nodes != wantNodes {
				t.Fatalf("round %d, order %d: Mapper gives %v after %d nodes, fresh %v after %d", round, p, got, nodes, want, wantNodes)
			}
			exported, err := w.AssignByDistance(dist, m, entityClass, leafClass, seeds...)
			if err != nil || !reflect.DeepEqual(exported, want) {
				t.Fatalf("round %d, order %d: AssignByDistance method gives %v (%v), fresh %v", round, p, exported, err, want)
			}
			all = append(all, kept{exported, want})
		}
	}
	for i, k := range all {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("result %d changed after the Mapper matched on", i)
		}
	}
}
