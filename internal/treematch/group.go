package treematch

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/comm"
)

// partitionCandidate is one deterministic grouping heuristic of the
// portfolio, KL refinement included: it builds its groups from scratch on
// every call and touches the shared matrix read-only, so candidates can be
// evaluated concurrently.
type partitionCandidate func() ([][]int, error)

// scoredPartition is one evaluated candidate: its groups plus the exact
// quality metrics the best-pick compares (intra-group volume, crossing
// streams in total and for the most exposed group).
type scoredPartition struct {
	groups        [][]int
	intra         float64
	streams, peak int
	err           error
}

// scorePartition runs one candidate and measures it.
func scorePartition(m *comm.Matrix, c partitionCandidate) scoredPartition {
	groups, err := c()
	if err != nil {
		return scoredPartition{err: err}
	}
	s, peak := crossingStats(m, groups)
	return scoredPartition{groups: groups, intra: intraVolume(m, groups), streams: s, peak: peak}
}

// evalPartitionCandidates evaluates the portfolio — one goroutine per
// candidate when concurrent — and returns the per-candidate scores in the
// portfolio's fixed order. Every candidate builds and refines its own
// groups and reads the shared matrix only, so the concurrent evaluation is
// race-free and candidate order carries all the determinism.
func evalPartitionCandidates(m *comm.Matrix, cands []partitionCandidate, concurrent bool) []scoredPartition {
	scored := make([]scoredPartition, len(cands))
	if !concurrent {
		for i, c := range cands {
			scored[i] = scorePartition(m, c)
		}
		return scored
	}
	var wg sync.WaitGroup
	for i, c := range cands {
		wg.Add(1)
		go func(i int, c partitionCandidate) {
			defer wg.Done()
			scored[i] = scorePartition(m, c)
		}(i, c)
	}
	wg.Wait()
	return scored
}

// pickPartition selects the winning candidate by the exact measured cut:
// maximum intra-group volume first (the total is fixed, so that is the
// minimum cut); among equal cuts the partition whose most exposed group
// sends the fewest streams across the boundary, then the fewest crossing
// entities overall — per-link fabric contention is set by the most
// contended NIC, so balancing the crossing streams matters even at equal
// cut volume. Candidates are compared in portfolio order, so the result is
// bit-identical whether the portfolio was evaluated sequentially or
// concurrently.
func pickPartition(scored []scoredPartition) ([][]int, error) {
	var best [][]int
	bestIntra := -1.0
	bestStreams, bestPeak := 0, 0
	for _, sc := range scored {
		if sc.err != nil {
			return nil, sc.err
		}
		if sc.intra > bestIntra ||
			(sc.intra == bestIntra && (sc.peak < bestPeak || (sc.peak == bestPeak && sc.streams < bestStreams))) {
			bestIntra, bestStreams, bestPeak = sc.intra, sc.streams, sc.peak
			best = sc.groups
		}
	}
	return best, nil
}

// PartitionAcross partitions the entities of the matrix into k groups of
// equal capacity ceil(p/k), minimizing the communication volume cut between
// groups. This is the top stage of hierarchical two-level placement: the
// groups become the per-cluster-node task sets, so the cut is exactly the
// traffic that must cross the interconnect fabric. The matrix is padded with
// zero-volume virtual entities up to k·ceil(p/k) internally; padding is
// stripped from the result, so the last groups may come back smaller. Group
// order is deterministic. No option changes the partition; opt.Spectral
// only saves the spectral candidate work it has done before.
//
// No single grouping heuristic wins on every task graph: greedy k-way
// seeding snakes through lattices, recursive bisection commits to a split
// axis it cannot revisit, and pairwise-swap refinement only polishes local
// optima. The partitioner therefore computes a portfolio of deterministic
// candidates — direct k-way grouping, recursive bisection, multilevel
// coarsening (pair, aggregate, partition the coarse graph, expand),
// split-finer-then-merge, and spectral bisection on the Fiedler vector (the
// geometry-free candidate that finds the quadrant partitions of square
// lattices, where the others stop at slab or center-block local optima) —
// KL-refines each at the fine level, and keeps the one with the smallest
// cut, measured exactly. The candidates are evaluated concurrently (one
// goroutine per candidate; each builds and refines its own groups against
// the read-only matrix) and the winner is picked in fixed portfolio order,
// so the result is bit-identical to a sequential evaluation.
func PartitionAcross(m *comm.Matrix, k int, opt Options) ([][]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("treematch: PartitionAcross needs at least 1 group, got %d", k)
	}
	p := m.Order()
	if p == 0 {
		return make([][]int, k), nil
	}
	per := (p + k - 1) / k
	work := m
	if per*k > p {
		var err error
		work, err = m.ExtendZero(per * k)
		if err != nil {
			return nil, err
		}
	}
	var best [][]int
	var err error
	if work.Order() > multilevelMinOrder {
		// The portfolio (greedy fill, full KL, spectral iteration) is
		// superlinear in the order; above the threshold the multilevel
		// coarsening driver takes over. Below it nothing changes, keeping
		// every pre-existing shape bit-identical.
		best, err = multilevelPartition(work, k, per)
	} else {
		best, err = pickPartition(evalPartitionCandidates(work, equalPartitionCandidates(work, p, k, per, opt.Spectral), true))
	}
	if err != nil {
		return nil, err
	}
	out := make([][]int, k)
	for gi, g := range best {
		for _, e := range g {
			if e < p {
				out[gi] = append(out[gi], e)
			}
		}
	}
	return out, nil
}

// equalPartitionCandidates assembles the equal-capacity portfolio in its
// fixed order (the order pickPartition breaks ties in). orig is the
// unpadded entity count — work may carry zero-volume padding up to
// k·ceil(orig/k), and the spectral candidate must know the difference.
// Each candidate runs its own KL refinement, so the portfolio can be
// evaluated concurrently — the candidates are independent by construction.
// memo (may be nil) serves the spectral candidate's orders.
func equalPartitionCandidates(work *comm.Matrix, orig, k, per int, memo *SpectralMemo) []partitionCandidate {
	// The node-level cut is the expensive one (every cut byte crosses the
	// network), so refinement always runs here even when per-core grouping
	// of a matrix this size would skip it.
	passes := partitionRefinePasses
	refine := func(groups [][]int) [][]int {
		if k > 1 && per > 1 {
			refineGroups(work, groups, passes)
		}
		return groups
	}
	p := work.Order()
	// The direct candidate is built unrefined (refine runs the KL passes
	// once, afterwards; GroupProcesses would otherwise run them twice).
	cands := []partitionCandidate{
		func() ([][]int, error) { return refine(GroupProcesses(work, per, 0)), nil },
	}
	// For odd k the bisection degenerates to the direct k-way grouping at
	// its top level, so the candidate would be a duplicate.
	if k%2 == 0 {
		cands = append(cands, func() ([][]int, error) {
			groups, err := bisectPartition(work, identityIDs(p), k, passes)
			if err != nil {
				return nil, err
			}
			return refine(groups), nil
		})
	}
	cands = append(cands, func() ([][]int, error) {
		groups, err := coarsenPartition(work, k, passes)
		if err != nil {
			return nil, err
		}
		return refine(groups), nil
	})
	// Split-finer-then-merge: partition into 2k half-size groups first, then
	// pair-merge them by aggregated affinity. The fine groups come out
	// compact, so the merged partition tends towards blocky shapes whose
	// crossing streams are balanced across the groups — the layouts direct
	// k-way grouping and recursive bisection miss when an equal-cut slice
	// partition exists.
	if k > 1 && per%2 == 0 && per > 1 {
		cands = append(cands, func() ([][]int, error) {
			groups, err := mergeFinePartition(work, k, passes)
			if err != nil {
				return nil, err
			}
			return refine(groups), nil
		})
	}
	// Spectral bisection, considered last so that ties keep the portfolio's
	// established winners. Only without padding (per·k equals the unpadded
	// order): zero-volume padding entities are isolated vertices whose
	// Laplacian component dominates the power iteration and drowns the
	// Fiedler direction.
	if k%2 == 0 && per*k == orig && per > 1 {
		cands = append(cands, func() ([][]int, error) {
			groups, err := spectralPartition(work, identityIDs(p), k, passes, memo, new(spectralScratch))
			if err != nil {
				return nil, err
			}
			return refine(groups), nil
		})
	}
	return cands
}

// expand replaces every member e of every group by the entities cover[e]
// stands for, in order: the inverse of one aggregation step.
func expand(groups, cover [][]int) [][]int {
	out := make([][]int, len(groups))
	for gi, g := range groups {
		for _, e := range g {
			out[gi] = append(out[gi], cover[e]...)
		}
	}
	return out
}

// relabel maps every member e of every group to ids[e]: groups of a
// sub-matrix back to the entities it was induced from.
func relabel(groups [][]int, ids []int) [][]int {
	out := make([][]int, len(groups))
	for gi, g := range groups {
		out[gi] = make([]int, len(g))
		for i, e := range g {
			out[gi][i] = ids[e]
		}
	}
	return out
}

// identityIDs returns the identity entity list 0..n-1.
func identityIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// PartitionAcrossWeighted partitions the entities of the matrix into
// len(caps) groups whose sizes are proportional to the given capacities
// (group g targets p·caps[g]/Σcaps entities, remainders distributed by
// largest fractional part), minimizing the communication volume cut between
// groups. This is the capacity-aware top stage of hierarchical placement on
// heterogeneous platforms: caps[g] is the core count of the cluster node
// group g is destined for, so an 8-core node receives twice the tasks of a
// 4-core node instead of the equal share that would oversubscribe the small
// node. With equal capacities it is exactly PartitionAcross, candidate
// portfolio included. Group order is deterministic and positional: group g
// always carries the size derived from caps[g].
func PartitionAcrossWeighted(m *comm.Matrix, caps []int, opt Options) ([][]int, error) {
	k := len(caps)
	if k < 1 {
		return nil, fmt.Errorf("treematch: PartitionAcrossWeighted needs at least 1 capacity, got %d", k)
	}
	equal := true
	for _, c := range caps {
		if c < 1 {
			return nil, fmt.Errorf("treematch: capacity %d must be positive", c)
		}
		if c != caps[0] {
			equal = false
		}
	}
	if equal {
		return PartitionAcross(m, k, opt)
	}
	p := m.Order()
	if p == 0 {
		return make([][]int, k), nil
	}
	sizes := weightedSizes(p, caps)
	passes := partitionRefinePasses
	if p > multilevelMinOrder {
		// Large instance: greedy seeding (heap-driven on symmetric matrices)
		// plus boundary-only refinement; the full-KL portfolio below is
		// unaffordable at this order.
		groups := greedySizedGroups(m, sizes)
		if k > 1 {
			refineGroupsBoundary(m, groups, passes)
		}
		for _, g := range groups {
			slices.Sort(g)
		}
		return groups, nil
	}
	refine := func(groups [][]int) [][]int {
		if k > 1 {
			refineGroups(m, groups, passes)
		}
		return groups
	}
	cands := []partitionCandidate{
		func() ([][]int, error) { return refine(greedySizedGroups(m, sizes)), nil },
		func() ([][]int, error) {
			groups, err := spectralPartitionSized(m, identityIDs(p), sizes, opt.Spectral, new(spectralScratch))
			if err != nil {
				return nil, err
			}
			return refine(groups), nil
		},
	}
	best, err := pickPartition(evalPartitionCandidates(m, cands, true))
	if err != nil {
		return nil, err
	}
	for _, g := range best {
		slices.Sort(g)
	}
	return best, nil
}

// PartitionAcrossWeightedMatrix runs PartitionAcrossWeighted and
// additionally emits the aggregated group-to-group matrix, the input of the
// group→node matching (MapMatrix on a fabric tree, AssignByDistance under
// any other distance model).
func PartitionAcrossWeightedMatrix(m *comm.Matrix, caps []int, opt Options) ([][]int, *comm.Matrix, error) {
	groups, err := PartitionAcrossWeighted(m, caps, opt)
	if err != nil {
		return nil, nil, err
	}
	agg, err := m.Aggregate(groups)
	if err != nil {
		return nil, nil, err
	}
	return groups, agg, nil
}

// weightedSizes apportions p entities over the capacities by the largest-
// remainder method: group g gets ⌊p·caps[g]/Σcaps⌋ plus at most one of the
// leftover units, awarded by descending fractional part (ties towards the
// lower index). The sizes sum to exactly p.
func weightedSizes(p int, caps []int) []int {
	total := 0
	for _, c := range caps {
		total += c
	}
	sizes := make([]int, len(caps))
	rem := make([]int, len(caps)) // fractional parts, scaled by total
	assigned := 0
	for g, c := range caps {
		sizes[g] = p * c / total
		rem[g] = p * c % total
		assigned += sizes[g]
	}
	order := identityIDs(len(caps))
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(rem[b], rem[a]) })
	for i := 0; i < p-assigned; i++ {
		sizes[order[i]]++
	}
	return sizes
}

// greedySizedGroups is greedyGroups generalized to per-group target sizes:
// groups are built largest-first (big groups constrain the solution most,
// so they pick coherent chunks before the leftovers fragment), each seeded
// with the heaviest-communicating ungrouped entity and filled by strongest
// affinity to the group so far. The returned slice is positional: result[g]
// has exactly sizes[g] members.
//
// Two implementations produce bit-identical groups: a heap-driven one that
// only touches the neighbors of added members (O(nnz·log n) — the full-scan
// fill is O(p²) per group and unusable at 100k tasks), and the full-scan
// one, kept for matrices the heap argument does not cover: asymmetric ones,
// which comm.Read accepts, and negative affinity, which only a caller that
// sets entries itself can build.
func greedySizedGroups(m *comm.Matrix, sizes []int) [][]int {
	if symmetricNonNegative(m) {
		return greedySizedGroupsHeap(m, sizes)
	}
	return greedySizedGroupsScan(m, sizes)
}

// symmetricNonNegative reports whether the matrix is exactly symmetric with
// no negative entries — the precondition under which the heap-based greedy
// fill provably matches the full-scan fill bit for bit.
func symmetricNonNegative(m *comm.Matrix) bool {
	neg := false
	for i := 0; i < m.Order() && !neg; i++ {
		m.ForEachNeighbor(i, func(_ int, v float64) {
			if v < 0 {
				neg = true
			}
		})
	}
	return !neg && m.IsSymmetric()
}

// greedySizedGroupsScan is the reference full-scan implementation: the
// affinity of every ungrouped entity is updated and scanned per added
// member, ties broken towards the lowest entity index.
func greedySizedGroupsScan(m *comm.Matrix, sizes []int) [][]int {
	p := m.Order()
	seedOrder, buildOrder := greedyOrders(m, sizes)

	grouped := make([]bool, p)
	affinity := make([]float64, p)
	out := make([][]int, len(sizes))
	next := 0
	for _, gi := range buildOrder {
		a := sizes[gi]
		if a == 0 {
			continue
		}
		for next < p && grouped[seedOrder[next]] {
			next++
		}
		seed := seedOrder[next]
		g := make([]int, 0, a)
		g = append(g, seed)
		grouped[seed] = true
		for i := range affinity {
			affinity[i] = 0
		}
		for len(g) < a {
			last := g[len(g)-1]
			bestE, bestAff := -1, -1.0
			for i := 0; i < p; i++ {
				if grouped[i] {
					continue
				}
				affinity[i] += m.At(last, i) + m.At(i, last)
				if affinity[i] > bestAff {
					bestE, bestAff = i, affinity[i]
				}
			}
			g = append(g, bestE)
			grouped[bestE] = true
		}
		out[gi] = g
	}
	return out
}

// descending orders float keys largest first with the comparisons of the
// `x > y` less function it stands for: the sorts only ask whether a
// comparison is negative, and it is exactly when x > y, so a NaN key lands
// where that less function put it.
func descending(x, y float64) int {
	switch {
	case x > y:
		return -1
	case y > x:
		return 1
	}
	return 0
}

// greedyOrders computes the seed order (entities by descending row volume,
// stable, so ties stay in index order) and the build order (groups by
// descending target size) shared by both greedy implementations.
func greedyOrders(m *comm.Matrix, sizes []int) (seedOrder, buildOrder []int) {
	p := m.Order()
	vol := make([]float64, p)
	seedOrder = make([]int, p)
	for i := range seedOrder {
		seedOrder[i] = i
		vol[i] = m.RowVolume(i)
	}
	slices.SortStableFunc(seedOrder, func(x, y int) int { return descending(vol[x], vol[y]) })

	buildOrder = identityIDs(len(sizes))
	slices.SortStableFunc(buildOrder, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	return seedOrder, buildOrder
}

// affEntry is one lazy heap entry of greedySizedGroupsHeap: the affinity an
// entity had when pushed. Entries go stale when the affinity grows or the
// entity is grouped; stale entries are discarded on pop.
type affEntry struct {
	aff float64
	e   int
}

// affHeap is a max-heap by (affinity desc, entity index asc) — exactly the
// tie-break of the full affinity scan, which takes the first strict maximum
// scanning indices upward. Typed rather than container/heap, which boxes
// every pushed entry. The live entries of an epoch have distinct
// (aff, e), so which one pops first does not depend on the heap's layout.
type affHeap []affEntry

func (h affHeap) less(i, j int) bool {
	return h[i].aff > h[j].aff || (h[i].aff == h[j].aff && h[i].e < h[j].e)
}

func (h *affHeap) push(x affEntry) {
	*h = append(*h, x)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *affHeap) pop() affEntry {
	s := *h
	top, n := s[0], len(s)-1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && s.less(r, j) {
			j = r
		}
		if !s.less(j, i) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	*h = s
	return top
}

// greedySizedGroupsHeap fills groups touching only the neighbors of each
// added member. For a symmetric non-negative matrix it is bit-identical to
// the full scan: affinities accumulate the same terms in the same member
// order (v + v here equals At(last,i) + At(i,last) there); entities never
// touched keep affinity exactly 0, and since touched affinities are strictly
// positive, the scan's all-zero tie — the lowest ungrouped index — is
// reproduced by a monotone fallback cursor.
func greedySizedGroupsHeap(m *comm.Matrix, sizes []int) [][]int {
	p := m.Order()
	seedOrder, buildOrder := greedyOrders(m, sizes)

	grouped := make([]bool, p)
	affinity := make([]float64, p)
	stamp := make([]int, p) // epoch an affinity value belongs to; 0 = never
	h := make(affHeap, 0, min(64, p))
	out := make([][]int, len(sizes))
	next := 0 // cursor into seedOrder
	low := 0  // globally lowest ungrouped entity (grouped is monotone)
	epoch := 0
	for _, gi := range buildOrder {
		a := sizes[gi]
		if a == 0 {
			continue
		}
		for next < p && grouped[seedOrder[next]] {
			next++
		}
		seed := seedOrder[next]
		epoch++
		h = h[:0]
		g := make([]int, 0, a)
		g = append(g, seed)
		grouped[seed] = true
		for len(g) < a {
			last := g[len(g)-1]
			m.ForEachNeighbor(last, func(j int, v float64) {
				if j == last || grouped[j] {
					return
				}
				if stamp[j] != epoch {
					stamp[j] = epoch
					affinity[j] = 0
				}
				affinity[j] += v + v // symmetric: At(last,j) + At(j,last)
				h.push(affEntry{affinity[j], j})
			})
			bestE := -1
			for len(h) > 0 {
				top := h.pop()
				if grouped[top.e] || stamp[top.e] != epoch || affinity[top.e] != top.aff {
					continue // stale entry
				}
				bestE = top.e
				break
			}
			if bestE == -1 {
				// Nothing with positive affinity left: the scan would pick
				// the lowest ungrouped index (affinity 0 beats its initial
				// -1 threshold at the first ungrouped entity).
				for low < p && grouped[low] {
					low++
				}
				bestE = low
			}
			g = append(g, bestE)
			grouped[bestE] = true
		}
		out[gi] = g
	}
	return out
}

// bisectPartition splits the given entities (len(ids) divisible by k) into k
// equal groups by recursive bisection on the sub-matrix they induce. Odd
// factors fall back to direct grouping at that level.
func bisectPartition(m *comm.Matrix, ids []int, k, passes int) ([][]int, error) {
	if k == 1 {
		return [][]int{ids}, nil
	}
	sub, err := induced(m, ids)
	if err != nil {
		return nil, err
	}
	split := k
	if k%2 == 0 {
		split = 2
	}
	local := relabel(GroupProcesses(sub, len(ids)/split, passes), ids)
	if split == k {
		return local, nil
	}
	var out [][]int
	for _, half := range local {
		deeper, err := bisectPartition(m, half, k/2, passes)
		if err != nil {
			return nil, err
		}
		out = append(out, deeper...)
	}
	return out, nil
}

// mergeFinePartition is the split-finer-then-merge candidate: 2k fine groups
// of half the capacity, aggregated into a 2k-order matrix, then paired into
// the final k groups by affinity.
func mergeFinePartition(m *comm.Matrix, k, passes int) ([][]int, error) {
	fine := GroupProcesses(m, m.Order()/(2*k), passes)
	agg, err := m.Aggregate(fine)
	if err != nil {
		return nil, err
	}
	return expand(GroupProcesses(agg, 2, passes), fine), nil
}

// isIdentity reports whether ids is exactly 0..n-1, in which case a
// Submatrix copy would be the matrix itself.
func isIdentity(ids []int, n int) bool {
	if len(ids) != n {
		return false
	}
	for i, e := range ids {
		if e != i {
			return false
		}
	}
	return true
}

// coarsenPartition is the multilevel candidate: repeatedly pair the
// strongest-affine entities and aggregate, until the coarse order is within
// a small multiple of k, then partition the coarse graph and expand. The
// coarse entities carry the accumulated affinity structure, so the final
// grouping sees block-level weights instead of uniform lattice edges.
func coarsenPartition(m *comm.Matrix, k, passes int) ([][]int, error) {
	cover := make([][]int, m.Order())
	for i := range cover {
		cover[i] = []int{i}
	}
	mat := m
	for mat.Order() > 4*k && mat.Order()%2 == 0 && (mat.Order()/2)%k == 0 {
		pairs := GroupProcesses(mat, 2, passes)
		var err error
		mat, err = mat.Aggregate(pairs)
		if err != nil {
			return nil, err
		}
		cover = expand(pairs, cover)
	}
	return expand(GroupProcesses(mat, mat.Order()/k, passes), cover), nil
}

// GroupProcesses partitions the p entities of the matrix into p/a groups of
// exactly a entities each, trying to maximize the communication volume kept
// inside groups (equivalently, to minimize the volume cut between groups).
// This is the GroupProcesses step of Algorithm 1: the groups formed at one
// level become the entities of the level above.
//
// p must be divisible by a (Map guarantees this by padding the matrix with
// zero-volume virtual entities). The heuristic is the one used by fast
// TreeMatch variants: greedy affinity-ordered seeding followed by bounded
// pairwise-swap refinement. It is deterministic: ties are broken towards the
// lowest entity index. The refinement walks neighbour lists, so its cost
// follows the nonzeros and the group pairs that share an edge, not p²·a; the
// swaps are exactly those of the dense loop it replaced (see refineGroups).
func GroupProcesses(m *comm.Matrix, a int, refinePasses int) [][]int {
	p := m.Order()
	if a <= 0 || p%a != 0 {
		panic("treematch: GroupProcesses requires a > 0 dividing the matrix order")
	}
	k := p / a
	groups := greedyGroups(m, a, k)
	if refinePasses > 0 && k > 1 && a > 1 {
		refineGroups(m, groups, refinePasses)
	}
	for _, g := range groups {
		slices.Sort(g)
	}
	return groups
}

// greedyGroups seeds each group with the heaviest-communicating ungrouped
// entity and fills it with the ungrouped entities that have the strongest
// affinity to the group so far. It is the uniform-size special case of
// greedySizedGroups (the classic TreeMatch ordering).
func greedyGroups(m *comm.Matrix, a, k int) [][]int {
	sizes := make([]int, k)
	for i := range sizes {
		sizes[i] = a
	}
	return greedySizedGroups(m, sizes)
}

// refineScratch is the working memory of one refineGroups call: the
// symmetrized adjacency plus one int32 and one float64 block the kernel carves
// its tables from. Grow-only and kept between calls, because the scheduler's
// admission path refines thousands of order-10 partitions per second and the
// partition portfolio refines its candidates concurrently.
type refineScratch struct {
	adj comm.SymAdjacency
	i32 []int32
	f64 []float64
}

// refineIdle is the stack of scratches no call holds. Not a sync.Pool: the
// collector empties one, so how often the tables are re-made would follow the
// collector's timing rather than the calls. It holds at most as many entries
// as calls ever ran at once.
var refineIdle struct {
	sync.Mutex
	stack []*refineScratch
}

func getRefineScratch() *refineScratch {
	refineIdle.Lock()
	defer refineIdle.Unlock()
	if n := len(refineIdle.stack); n > 0 {
		sc := refineIdle.stack[n-1]
		refineIdle.stack = refineIdle.stack[:n-1]
		return sc
	}
	return new(refineScratch)
}

func putRefineScratch(sc *refineScratch) {
	refineIdle.Lock()
	refineIdle.stack = append(refineIdle.stack, sc)
	refineIdle.Unlock()
}

// refineGroups improves the partition with pairwise swaps between groups
// (a bounded Kernighan–Lin pass): swap x∈g1 with y∈g2 whenever that strictly
// increases the intra-group volume. Each pass scans all group pairs once.
// The groups must be disjoint.
//
// Exactness contract: it performs the swaps, in the order, of the dense
// reference loop kept in refine_oracle_test.go, which prices every (x, y) of
// every group pair as ((cx + cy) − ox) − oy, each term a sum of
// w(e,u) = At(e,u) + At(u,e) over a group in position order. Here the same
// sums run over the symmetrized adjacency, which only drops terms that are
// zero — exact, since a float sum that starts at +0 never reaches −0 and
// s + 0 == s otherwise. What is cached: each entity's own-group sum and each
// group's minimum of it (rebuilt for the two groups a swap touches), and,
// while a group pair is scanned, every member's neighbours in the other
// group in position order with their sum. A pair (x, y) with no edge between
// them reads cx and cy from those sums; one with an edge re-adds the two
// lists without the partner. A group pair with no edge between it prices
// every (x, y) at (0 − ox) − oy, which float rounding keeps monotone in ox
// and oy, so it is skipped when the two minima already fail the threshold.
func refineGroups(m *comm.Matrix, groups [][]int, passes int) {
	sc := getRefineScratch()
	defer putRefineScratch(sc)
	adj := m.SymmetricAdjacency(&sc.adj)
	off, col, w := adj.Off, adj.Col, adj.W
	n, k := m.Order(), len(groups)
	if ni := 4*n + 2 + k + len(col); cap(sc.i32) < ni {
		sc.i32 = make([]int32, ni)
	}
	if nf := 3*n + k + len(col); cap(sc.f64) < nf {
		sc.f64 = make([]float64, nf)
	}
	ib, fb := sc.i32, sc.f64
	ints := func(c int) []int32 { s := ib[:c:c]; ib = ib[c:]; return s }
	floats := func(c int) []float64 { s := fb[:c:c]; fb = fb[c:]; return s }
	group, pos, mark := ints(n), ints(n), ints(k)
	la, lb, lidx := ints(n+1), ints(n+1), ints(len(col))
	own, minOwn := floats(n), floats(k)
	crossA, crossB, lw := floats(n), floats(n), floats(len(col))

	for e := range group {
		group[e] = -1
	}
	for gi, g := range groups {
		mark[gi] = 0
		for i, e := range g {
			group[e], pos[e] = int32(gi), int32(i)
		}
	}
	// sumOwn rebuilds own[e] for the members of group g — their neighbours
	// inside g, added in position order — and the group's minimum.
	sumOwn := func(g int) {
		for _, e := range groups[g] {
			own[e] = 0
		}
		for _, u := range groups[g] {
			for p := off[u]; p < off[u+1]; p++ {
				if v := col[p]; group[v] == int32(g) {
					own[v] += w[p]
				}
			}
		}
		minOwn[g] = math.Inf(1)
		for _, e := range groups[g] {
			if own[e] < minOwn[g] {
				minOwn[g] = own[e]
			}
		}
	}
	for g := range groups {
		sumOwn(g)
	}
	// listNeighbours lays out, for every member of group dst (by position),
	// its neighbours in group src in src's position order: member i's list is
	// lidx/lw[lo[i]:lo[i+1]], lidx the neighbour's position, and cross[i] the
	// sum of the list. The adjacency pattern is symmetric, so the count from
	// dst's rows is what the scatter from src's rows fills.
	listNeighbours := func(src, dst int, lo []int32, base int32, cross []float64) {
		lo[0] = base
		for i, d := range groups[dst] {
			lo[i+1], cross[i] = lo[i], 0
			for p := off[d]; p < off[d+1]; p++ {
				if group[col[p]] == int32(src) {
					lo[i+1]++
				}
			}
		}
		for i, s := range groups[src] {
			for p := off[s]; p < off[s+1]; p++ {
				if d := col[p]; group[d] == int32(dst) {
					q := lo[pos[d]]
					lidx[q], lw[q] = int32(i), w[p]
					lo[pos[d]]++
					cross[pos[d]] += w[p]
				}
			}
		}
		copy(lo[1:], lo[:len(groups[dst])]) // the cursors ended one list on
		lo[0] = base
	}
	sumExcept := func(lo, hi, skip int32) float64 {
		var s float64
		for q := lo; q < hi; q++ {
			if lidx[q] != skip {
				s += lw[q]
			}
		}
		return s
	}
	// mark[g] == stamp: some member g1 had during this sweep has a neighbour
	// in g. Never cleared on a swap: a stale mark costs a scan, not a result.
	stamp := int32(0)
	markGroups := func(e int) {
		for p := off[e]; p < off[e+1]; p++ {
			if g := group[col[p]]; g >= 0 {
				mark[g] = stamp
			}
		}
	}
	for pass := 0; pass < passes; pass++ {
		improved := false
		for g1 := 0; g1 < k; g1++ {
			stamp++
			for _, x := range groups[g1] {
				markGroups(x)
			}
			for g2 := g1 + 1; g2 < k; g2++ {
				if mark[g2] != stamp && !(0-minOwn[g1]-minOwn[g2] > 1e-12) {
					continue
				}
				a, b := groups[g1], groups[g2]
				listPair := func() {
					listNeighbours(g2, g1, la, 0, crossA)
					listNeighbours(g1, g2, lb, la[len(a)], crossB)
				}
				listPair()
				for xi := range a {
					cur := la[xi]
					for yi := range b {
						x, y := a[xi], b[yi]
						for cur < la[xi+1] && lidx[cur] < int32(yi) {
							cur++
						}
						cx, cy := crossA[xi], crossB[yi]
						if cur < la[xi+1] && lidx[cur] == int32(yi) {
							cx = sumExcept(la[xi], la[xi+1], int32(yi))
							cy = sumExcept(lb[yi], lb[yi+1], int32(xi))
						}
						if ((cx+cy)-own[x])-own[y] > 1e-12 {
							a[xi], b[yi] = y, x
							group[x], group[y] = int32(g2), int32(g1)
							pos[x], pos[y] = int32(yi), int32(xi)
							sumOwn(g1)
							sumOwn(g2)
							listPair()
							markGroups(y)
							cur = la[xi]
							improved = true
						}
					}
				}
			}
		}
		if !improved {
			return
		}
	}
}

// crossingStats counts the entities with at least one positive-volume edge
// leaving their group — the streams a partition sends across the fabric —
// in total and for the most exposed single group (the bottleneck NIC under
// per-link contention). A single sweep over the nonzero entries marks both
// endpoints of every positive cross-group pair; the counts are integers, so
// the result is exactly the one the historical O(n²) scan produced.
func crossingStats(m *comm.Matrix, groups [][]int) (total, peak int) {
	n := m.Order()
	group := make([]int, n)
	for gi, g := range groups {
		for _, e := range g {
			group[e] = gi
		}
	}
	crossing := make([]bool, n)
	for i := 0; i < n; i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j == i || group[i] == group[j] || (crossing[i] && crossing[j]) {
				return
			}
			// Pairs with either direction stored are the only ones whose
			// volume sum can be positive.
			if v+m.At(j, i) > 0 {
				crossing[i] = true
				crossing[j] = true
			}
		})
	}
	perGroup := make([]int, len(groups))
	for i, c := range crossing {
		if c {
			total++
			perGroup[group[i]]++
		}
	}
	return total, slices.Max(perGroup)
}

// intraVolume returns the total communication volume kept inside the groups
// (both directions). Useful as a quality metric for tests and ablations.
func intraVolume(m *comm.Matrix, groups [][]int) float64 {
	var s float64
	for _, g := range groups {
		for _, i := range g {
			for _, j := range g {
				if i != j {
					s += m.At(i, j)
				}
			}
		}
	}
	return s
}
