package treematch

import (
	"fmt"
	"math"

	"repro/internal/comm"
)

// AssignByDistance maps each entity of the matrix onto a distinct leaf,
// minimizing the distance-weighted communication cost subject to an optional
// class constraint: entity g may only occupy leaves with leafClass[leaf] ==
// entityClass[g] (nil classes place no constraint). It is the one matcher
// beside Algorithm 1, for every target that is a distance model rather than
// a balanced tree to be grouped level by level: dist[a][b] is any symmetric
// leaf-to-leaf distance — the hops of a fabric tree whose leaves come in
// capacity classes (AssignClassed), routed-path latencies of a torus or
// dragonfly fabric or of an uneven tree, the latencies between the nodes of
// a free-slot view, the hops between the free cores of one node. Every entry
// must be finite and nonnegative — the greedy pass picks the cheapest leaf
// and the branch-and-bound prunes on partial costs, and neither survives a
// NaN, an infinite or a negative increment — and dist[a][b] must equal
// dist[b][a], which the swap refinement's delta takes for granted; a model
// carrying an unreachable or asymmetric pair is rejected with an error naming
// the pair.
//
// Entities are placed in affinity-attachment order (affinityOrder) on the
// cheapest class-compatible free leaf, ties towards the lower leaf index.
// Each optional seed is a complete candidate assignment (entity → leaf) that
// enters the portfolio alongside that greedy solution; every candidate is
// improved by class-preserving pairwise-swap refinement and the cheapest
// wins (ties towards the earlier candidate, greedy first). When the
// constrained permutation space — the product of the per-class factorials —
// is at most classedSearchLimit, an exact branch-and-bound over the
// class-preserving assignments tightens the incumbent further. The search
// treats interchangeable leaves — twin classes, see searchTables — as one: at
// each node it tries only the lowest unused leaf of every twin class.
// Swapping two twins turns any completion it skips into one of bit-identical
// cost that the ascending-leaf search reaches first, and only a strictly
// cheaper completion replaces the incumbent, so the skipped subtrees could
// never have been returned.
func AssignByDistance(dist [][]float64, m *comm.Matrix, entityClass, leafClass []int, seeds ...[]int) ([]int, error) {
	best, _, err := assignByDistance(dist, m, entityClass, leafClass, seeds)
	return best, err
}

// assignByDistance is AssignByDistance plus the number of nodes its exact
// search visited (0 when the permutation space is past the limit).
func assignByDistance(dist [][]float64, m *comm.Matrix, entityClass, leafClass []int, seeds [][]int) ([]int, int, error) {
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

	aff, vol := pairAffinity(m)
	order := affinityOrder(aff, vol)

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
	off, partners, prevTwin := searchTables(dist, aff, order, leafClass)
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

// factorial is n! as a float64 (+Inf past 170).
func factorial(n int) float64 {
	f := 1.0
	for k := 2; k <= n; k++ {
		f *= float64(k)
	}
	return f
}

// searchTables lays out, in one block, what the exact search reads at every
// node. partners[off[pos]:off[pos+1]] are the entities placed before
// order[pos] that it has affinity with, in placement order: the terms of its
// cost increment as the greedy pass sums them, without the zeros between.
// prevTwin[l] is the next lower leaf of l's twin class, -1 for the lowest.
//
// Leaves l and t are twins when no assignment can tell them apart: they
// carry the same class, stand at the same distance, either way, from every
// third leaf, and dist[l][t] == dist[t][l]. The relation is transitive, so
// the next lower twin is the first one met scanning down. The free cores
// under one cache are twins; the nodes of a torus have none.
func searchTables(dist, aff [][]float64, order, leafClass []int) (off, partners, prevTwin []int) {
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

// isTwin reports whether leaves l and t are twins (searchTables).
func isTwin(dist [][]float64, leafClass []int, l, t int) bool {
	if leafClass[l] != leafClass[t] || dist[l][t] != dist[t][l] {
		return false
	}
	for x := range dist {
		if x != l && x != t && (dist[l][x] != dist[t][x] || dist[x][l] != dist[x][t]) {
			return false
		}
	}
	return true
}

// pairAffinity symmetrizes the matrix into pairwise affinities and per-entity
// total volumes.
func pairAffinity(m *comm.Matrix) (aff [][]float64, vol []float64) {
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

// affinityOrder is the affinity-attachment placement order: start from the
// heaviest entity and always continue with the unplaced entity most strongly
// tied to the placed set (ties towards total volume, then the lower index).
// Heavy partners are thereby placed back to back, so the incremental cost of
// the greedy pass — and the early pruning of the branch-and-bound — sees
// their edge the moment the second endpoint is placed.
func affinityOrder(aff [][]float64, vol []float64) []int {
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

// refineDistanceSwaps improves an assignment with pairwise swaps between
// same-class entities (a bounded Kernighan–Lin pass on the leaf
// permutation): swap the leaves of e1 and e2 whenever that strictly lowers
// the distance-weighted cost. Each pass scans all same-class pairs once; the
// distance between e1 and e2 themselves is swap-invariant under a symmetric
// model, so only their edges to third parties enter the delta.
func refineDistanceSwaps(dist [][]float64, aff [][]float64, entityClass, assignment []int) {
	p := len(assignment)
	for pass := 0; pass < classedRefinePasses; pass++ {
		improved := false
		for e1 := 0; e1 < p; e1++ {
			for e2 := e1 + 1; e2 < p; e2++ {
				if entityClass[e1] != entityClass[e2] {
					continue
				}
				l1, l2 := assignment[e1], assignment[e2]
				delta := 0.0
				for j := 0; j < p; j++ {
					if j == e1 || j == e2 {
						continue
					}
					lj := assignment[j]
					if a := aff[e1][j]; a != 0 {
						delta += float64(a * (dist[l2][lj] - dist[l1][lj]))
					}
					if a := aff[e2][j]; a != 0 {
						delta += float64(a * (dist[l1][lj] - dist[l2][lj]))
					}
				}
				if delta < -1e-12 {
					assignment[e1], assignment[e2] = l2, l1
					improved = true
				}
			}
		}
		if !improved {
			return
		}
	}
}

// classedRefinePasses bounds the swap refinement of each candidate.
const classedRefinePasses = 8

// classedSearchLimit bounds the constrained permutation space — the
// product of the per-class factorials — the exact branch-and-bound of
// AssignByDistance walks; beyond it the refined incumbent stands. Two
// classes of 4 (A11's default shape, 576 permutations) or of 6 (518k) stay
// under it; two classes of 8 (1.6e9) or a single class of 10 (3.6e6) fall
// back.
const classedSearchLimit = 3e6

// DistanceCost returns the distance-weighted communication cost of an
// assignment under an arbitrary leaf distance model: the sum over all entity
// pairs of their communication volume multiplied by the distance between
// their leaves. The distance-model analogue of Cost.
func DistanceCost(dist [][]float64, m *comm.Matrix, assignment []int) float64 {
	var s float64
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j != i {
				s += float64(v * dist[assignment[i]][assignment[j]])
			}
		})
	}
	return s
}
