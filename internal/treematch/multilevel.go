package treematch

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/comm"
)

// Multilevel outer driver of PartitionAcross. Above multilevelMinOrder the
// candidate portfolio is unaffordable — greedy fill, KL refinement and the
// spectral iteration are all superlinear in the fine order — so the
// partitioner switches to the classic multilevel scheme instead: coarsen the
// graph by heavy-edge matching until groups would hold at most
// coarsePerTarget coarse vertices, partition the coarse graph (with the full
// portfolio when it is small enough, greedy seeding otherwise), then
// uncoarsen level by level with boundary-only Kernighan–Lin refinement. KL
// therefore never runs over full groups at the fine level; it only ever
// considers the capped boundary of the capped heaviest cut pairs.
//
// Everything below is deterministic: vertices are visited in index order,
// ties break towards lower indices or earlier portfolio/cut positions, and
// no map iteration order ever reaches a result.
const (
	// multilevelMinOrder is the padded order above which PartitionAcross
	// switches from the candidate portfolio to the multilevel driver. All
	// pre-existing test shapes sit far below it, so their partitions are
	// unchanged bit for bit.
	multilevelMinOrder = 4096
	// coarsePerTarget stops coarsening once a group would hold this many
	// coarse vertices (≈30×k total, per the usual multilevel guideline).
	coarsePerTarget = 30
	// coarsePortfolioMax bounds the coarse order for which the full
	// candidate portfolio (with fine-level KL) still runs.
	coarsePortfolioMax = 2048
	// maxBoundaryPairs caps, per refinement pass, how many group pairs are
	// examined, as a multiple of k (the heaviest cuts win).
	maxBoundaryPairs = 4
	// maxBoundaryCands caps the per-side candidate list of one group pair.
	maxBoundaryCands = 64
	// maxSwapsPerPair bounds the swaps applied to one group pair per pass.
	maxSwapsPerPair = 4
)

// multilevelPartition partitions the (padded) matrix into k groups of
// exactly per entities. Requires per·k == work.Order(). Groups come back
// sorted. The affinity matrix is assumed symmetric (the padded matrices
// PartitionAcross builds are; refinement quality, not correctness, would
// suffer otherwise).
func multilevelPartition(work *comm.Matrix, k, per int) ([][]int, error) {
	passes := partitionRefinePasses

	// Coarsening: heavy-edge perfect matchings keep every coarse vertex at
	// uniform weight 2^level, so equal coarse groups expand to equal fine
	// groups and the size invariant needs no balancing pass.
	type level struct {
		mat   *comm.Matrix
		pairs [][]int
	}
	var levels []level
	mat := work
	perCur := per
	for perCur > coarsePerTarget && perCur%2 == 0 {
		pairs := heavyEdgeMatching(mat)
		agg, err := mat.Aggregate(pairs)
		if err != nil {
			return nil, err
		}
		levels = append(levels, level{mat: mat, pairs: pairs})
		mat = agg
		perCur /= 2
	}

	// Initial partition of the coarsest graph.
	var groups [][]int
	if mat.Order() <= coarsePortfolioMax {
		var err error
		groups, err = pickPartition(evalPartitionCandidates(
			mat, equalPartitionCandidates(mat, mat.Order(), k, perCur), true))
		if err != nil {
			return nil, err
		}
	} else {
		groups = greedyGroups(mat, perCur, k)
		refineGroupsBoundary(mat, groups, passes)
	}

	// Uncoarsening: expand each coarse vertex into its matched pair and
	// polish the boundary at every level, the fine one included.
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		expanded := make([][]int, len(groups))
		for gi, g := range groups {
			eg := make([]int, 0, 2*len(g))
			for _, e := range g {
				eg = append(eg, lv.pairs[e]...)
			}
			expanded[gi] = eg
		}
		groups = expanded
		refineGroupsBoundary(lv.mat, groups, passes)
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups, nil
}

// heavyEdgeMatching builds a perfect matching of the matrix's entities:
// visit vertices in index order, pair each unmatched vertex with its
// heaviest unmatched neighbor (first-seen wins ties, i.e. the lowest column
// index), and pair the leftover neighborless vertices among themselves in
// index order. Requires an even order; every returned pair is sorted.
func heavyEdgeMatching(m *comm.Matrix) [][]int {
	n := m.Order()
	mate := make([]int, n)
	for i := range mate {
		mate[i] = -1
	}
	pairs := make([][]int, 0, n/2)
	addPair := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		mate[a], mate[b] = b, a
		pairs = append(pairs, []int{a, b})
	}
	for i := 0; i < n; i++ {
		if mate[i] >= 0 {
			continue
		}
		best, bestW := -1, 0.0
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j == i || mate[j] >= 0 {
				return
			}
			if best == -1 || v > bestW {
				best, bestW = j, v
			}
		})
		if best >= 0 {
			addPair(i, best)
		}
	}
	// Leftovers (vertices whose whole neighborhood got matched first, and
	// zero-degree padding) pair up in index order.
	prev := -1
	for i := 0; i < n; i++ {
		if mate[i] >= 0 {
			continue
		}
		if prev < 0 {
			prev = i
			continue
		}
		addPair(prev, i)
		prev = -1
	}
	return pairs
}

// refineGroupsBoundary is the boundary-only KL pass of the multilevel
// driver: per pass, one sweep over the nonzeros finds the cut weight of
// every adjacent group pair; the maxBoundaryPairs·k heaviest pairs each get
// up to maxSwapsPerPair best-gain swaps between their maxBoundaryCands most
// promising boundary members. Group sizes are preserved (only swaps are
// applied). The matrix is assumed symmetric.
//
// Exactness contract: it makes the swaps, in the order, of the map-and-At
// reference kept in boundary_oracle_test.go. Each pair's cut adds the same
// nonzeros in the same (row, column) order there and here (cutRanker), and
// a swap is priced from D sums built the same way and a w(x, y) read from
// the rows the D sums walk rather than from m.At (boundarySwapper). An
// attempt whose failure is certain is not priced at all: failMemo skips a
// pair that failed before and has not changed since, and try stops at a
// D-sum bound before it sorts or scatters anything.
// Everything is sized once per call; no attempt allocates.
func refineGroupsBoundary(m *comm.Matrix, groups [][]int, passes int) {
	k := len(groups)
	if k < 2 || passes <= 0 {
		return
	}
	n := m.Order()
	group := make([]int32, n) // an entity in no group counts as group 0, as it always has
	largest := 0
	for gi, g := range groups {
		for _, e := range g {
			group[e] = int32(gi)
		}
		largest = max(largest, len(g))
	}
	var cr cutRanker
	sw := newBoundarySwapper(n, largest)
	memo := newFailMemo(k)
	for pass := 0; pass < passes; pass++ {
		memo.nextPass()
		pairs := cr.rank(m, group, k)
		if len(pairs) == 0 {
			return
		}
		improved := false
		for _, pr := range pairs {
			if memo.fails(pr.a, pr.b) {
				continue
			}
			s := 0
			for s < maxSwapsPerPair && sw.try(m, groups, group, pr.a, pr.b) {
				s++
			}
			if s > 0 {
				improved = true
				memo.ver[pr.a]++
				memo.ver[pr.b]++
			}
			if s < maxSwapsPerPair {
				memo.record(pr.a, pr.b)
			}
		}
		if !improved {
			return
		}
	}
}

// failMemo remembers the pairs whose last attempt found no swap. An
// attempt reads groups a and b only through their member slices and
// through whether an entity's label is a or b, and both change only when a
// swap involves a or b: a swap between c and d rewrites slices c and d and
// relabels entities between c and d alone. So a pair that failed at the
// current versions of both groups fails again, and is skipped.
type failMemo struct {
	ver []uint32 // ver[g] changes whenever group g takes part in a swap
	// prev holds the failures of the previous pass sorted by (a, b); cur
	// collects this pass's, skipped pairs included, so that the pass after
	// still sees them.
	prev, cur []failRec
}

type failRec struct {
	a, b   int32
	va, vb uint32
}

func cmpFailRec(x, y failRec) int {
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// newFailMemo sizes the memo for k groups: a pass ranks at most
// maxBoundaryPairs·k pairs, each recorded at most once.
func newFailMemo(k int) *failMemo {
	l := maxBoundaryPairs * k
	return &failMemo{ver: make([]uint32, k), prev: make([]failRec, 0, l), cur: make([]failRec, 0, l)}
}

// fails reports whether the pair failed in the previous pass and neither
// group has swapped since; if so it is recorded again for this pass.
func (f *failMemo) fails(a, b int32) bool {
	p, ok := slices.BinarySearchFunc(f.prev, failRec{a: a, b: b}, cmpFailRec)
	if !ok || f.prev[p].va != f.ver[a] || f.prev[p].vb != f.ver[b] {
		return false
	}
	f.cur = append(f.cur, f.prev[p])
	return true
}

// record notes that the pair has just failed at the groups' current versions.
func (f *failMemo) record(a, b int32) {
	f.cur = append(f.cur, failRec{a, b, f.ver[a], f.ver[b]})
}

// nextPass makes the failures recorded so far the ones the new pass looks
// up.
func (f *failMemo) nextPass() {
	slices.SortFunc(f.cur, cmpFailRec)
	f.prev, f.cur = f.cur, f.prev[:0]
}

// cutRec is a cross-group nonzero v between groups a < b while cutRanker
// buckets them, and the summed cut of the pair (a, b) once it has.
type cutRec struct {
	a, b int32
	v    float64
}

// byCut orders pair cuts heaviest first, ties by (a, b). Pairs are unique,
// so the order is strict: the first l pairs are one set however they were
// selected, and sorting only them equals sorting all and truncating.
type byCut []cutRec

func (s byCut) Len() int { return len(s) }
func (s byCut) Less(x, y int) bool {
	if s[x].v != s[y].v {
		return s[x].v > s[y].v
	}
	if s[x].a != s[y].a {
		return s[x].a < s[y].a
	}
	return s[x].b < s[y].b
}
func (s byCut) Swap(x, y int) { s[x], s[y] = s[y], s[x] }

// selectTop moves the first l records of s by byCut into s[:l], in no
// particular order (quickselect around the middle record). Requires
// 0 < l < len(s).
func selectTop(s byCut, l int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		s.Swap(lo+(hi-lo)/2, hi)
		p := lo
		for i := lo; i < hi; i++ {
			if s.Less(i, hi) {
				s.Swap(i, p)
				p++
			}
		}
		s.Swap(p, hi)
		switch {
		case p == l-1:
			return
		case p < l-1:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// cutRanker is the working memory of rank, kept across the passes of one
// refineGroupsBoundary call.
type cutRanker struct {
	// One pass's cross-group nonzeros in sweep order, then bucketed by a;
	// the pairs are summed into byA in place.
	recs, byA []cutRec
	end       []int32 // after bucketing, bucket a is byA[end[a-1]:end[a]]
	slot      []int32 // slot[b]: where pair (a, b) of the bucket being summed sits in the pairs
}

// rank returns the maxBoundaryPairs·k heaviest cut pairs in byCut order.
// One sweep over the nonzeros records each cross-group entry under the
// smaller group of its pair; a stable counting sort keeps every bucket in
// sweep order, so summing bucket a pair by pair adds the terms of each cut
// in the global (row, column) order a per-pair map would have.
func (c *cutRanker) rank(m *comm.Matrix, group []int32, k int) []cutRec {
	if c.end == nil {
		// Every cross-group entry is a nonzero; a dense matrix would pay a
		// sweep to count them, so it grows the buffer instead.
		hint := m.Order()
		if m.IsSparse() {
			hint = m.NNZ()
		}
		c.end, c.slot, c.recs = make([]int32, k+1), make([]int32, k), make([]cutRec, 0, hint)
	}
	recs := c.recs[:0]
	for i := 0; i < m.Order(); i++ {
		gi := group[i]
		m.ForEachNeighbor(i, func(j int, v float64) {
			gj := group[j]
			switch {
			case j == i || gi == gj:
			case gi < gj:
				recs = append(recs, cutRec{gi, gj, v})
			default:
				recs = append(recs, cutRec{gj, gi, v})
			}
		})
	}
	c.recs = recs
	if cap(c.byA) < len(recs) {
		c.byA = make([]cutRec, len(recs))
	}
	byA, end := c.byA[:len(recs)], c.end
	clear(end)
	for _, r := range recs {
		end[r.a+1]++
	}
	for a := 1; a <= k; a++ {
		end[a] += end[a-1]
	}
	for _, r := range recs {
		byA[end[r.a]] = r
		end[r.a]++
	}
	// end[a] now closes bucket a. Pair p is appended while reading entry
	// q ≥ p (every earlier pair took an earlier entry), so the pairs
	// overwrite only entries already read. A stale slot from an earlier
	// bucket or pass cannot name the current (a, b): pairs holds each pair
	// at most once, and only bucket a appends pairs with that a.
	pairs := byA[:0]
	lo := int32(0)
	for a := int32(0); a < int32(k); a++ {
		for _, r := range byA[lo:end[a]] {
			s := c.slot[r.b]
			if int(s) >= len(pairs) || pairs[s].a != a || pairs[s].b != r.b {
				s = int32(len(pairs))
				c.slot[r.b] = s
				pairs = append(pairs, cutRec{a, r.b, 0})
			}
			pairs[s].v += r.v
		}
		lo = end[a]
	}
	if l := maxBoundaryPairs * k; len(pairs) > l {
		selectTop(pairs, l)
		pairs = pairs[:l]
	}
	sort.Sort(byCut(pairs))
	return pairs
}

// entry is one recorded nonzero (j, v) of a member's row.
type entry struct {
	j int32
	v float64
}

// boundarySide is one group of the pair a swap attempt prices.
type boundarySide struct {
	members []int
	// d[p] = D(members[p]) = W(x, other) − W(x, own): the cut improvement of
	// moving the member across, ignoring the swap partner. Weights count
	// both directions (v+v, symmetric).
	d []float64
	// maxD is the largest D (-Inf with no members, NaN if any D is NaN),
	// and neg whether any entry in out is negative.
	maxD float64
	neg  bool
	// The member at position p has its nonzeros into the other group at
	// out[off[p]:off[p+1]], in column order.
	off []int32
	out []entry
	// cand holds the positions of the maxBoundaryCands best members by
	// (D desc, entity index asc); rank sorts it.
	cand []int
}

func (s *boundarySide) Len() int { return len(s.cand) }
func (s *boundarySide) Less(p, q int) bool {
	dp, dq := s.d[s.cand[p]], s.d[s.cand[q]]
	if dp != dq {
		return dp > dq
	}
	return s.members[s.cand[p]] < s.members[s.cand[q]]
}
func (s *boundarySide) Swap(p, q int) { s.cand[p], s.cand[q] = s.cand[q], s.cand[p] }

// measure computes D of the members of group own against group other,
// recording on the way the row entries a swap's w needs.
func (s *boundarySide) measure(m *comm.Matrix, members []int, group []int32, own, other int32) {
	s.members = members
	s.d, s.off, s.out = s.d[:len(members)], s.off[:len(members)+1], s.out[:0]
	s.maxD, s.neg = math.Inf(-1), false
	for p, x := range members {
		var toOther, toOwn float64
		m.ForEachNeighbor(x, func(u int, v float64) {
			if u == x {
				return
			}
			switch group[u] {
			case other:
				toOther += v + v
				s.out = append(s.out, entry{int32(u), v})
				s.neg = s.neg || v < 0
			case own:
				toOwn += v + v
			}
		})
		s.d[p] = toOther - toOwn
		s.maxD = max(s.maxD, s.d[p])
		s.off[p+1] = int32(len(s.out))
	}
}

// rank fills the candidate list from the D values measure computed.
func (s *boundarySide) rank() {
	s.cand = s.cand[:len(s.members)]
	for p := range s.cand {
		s.cand[p] = p
	}
	sort.Sort(s)
	if len(s.cand) > maxBoundaryCands {
		s.cand = s.cand[:maxBoundaryCands]
	}
}

// boundarySwapper prices and applies the best swap of a group pair. The
// gain of swapping x and y is D(x) + D(y) − 2·w(x,y), the standard KL
// expression, with w(x, y) = At(x, y) + At(y, x) taken from the two
// candidate blocks: xy[i·|candB|+j] = At(candA[i], candB[j]) and yx the
// other direction, each scattered from the entries measure recorded. An
// absent entry reads 0, as At reads it; a recorded one is the stored value.
type boundarySwapper struct {
	side [2]boundarySide
	// slot[e] is e's position in its side's candidate list when e is a
	// candidate of the attempt; stale otherwise, so it is checked (cand).
	slot   []int32
	xy, yx []float64
}

// cand reports the candidate position of entity u on side s, if u is one.
func (sw *boundarySwapper) cand(s *boundarySide, u int32) (int, bool) {
	c := int(sw.slot[u])
	return c, c < len(s.cand) && s.members[s.cand[c]] == int(u)
}

// newBoundarySwapper sizes the swapper for an order-n matrix whose largest
// group has the given size.
func newBoundarySwapper(n, largest int) *boundarySwapper {
	sw := &boundarySwapper{slot: make([]int32, n)}
	for i := range sw.side {
		sw.side[i] = boundarySide{
			d:    make([]float64, largest),
			off:  make([]int32, largest+1),
			cand: make([]int, largest),
		}
	}
	c := min(largest, maxBoundaryCands)
	sw.xy, sw.yx = make([]float64, c*c), make([]float64, c*c)
	return sw
}

// try applies the single best positive-gain swap between groups a and b,
// restricted to each side's top candidate list, and reports whether it
// swapped.
func (sw *boundarySwapper) try(m *comm.Matrix, groups [][]int, group []int32, a, b int32) bool {
	ga, gb := groups[a], groups[b]
	A, B := &sw.side[0], &sw.side[1]
	A.measure(m, ga, group, a, b)
	B.measure(m, gb, group, b, a)
	const eps = 1e-12
	// With no negative entry recorded, every w(x, y) is ≥ 0, and rounded
	// addition and subtraction are monotone, so no gain exceeds
	// maxD(A) + maxD(B). The sign guard is needed: a negative w raises a
	// gain above that sum. A +Inf or NaN maximum makes the sum fail the test.
	if !A.neg && !B.neg && A.maxD+B.maxD <= eps {
		return false
	}
	A.rank()
	B.rank()
	nb := len(B.cand)
	xy, yx := sw.xy[:len(A.cand)*nb], sw.yx[:len(A.cand)*nb]
	clear(xy)
	clear(yx)
	for i, xi := range A.cand {
		sw.slot[ga[xi]] = int32(i)
	}
	for j, yi := range B.cand {
		sw.slot[gb[yi]] = int32(j)
	}
	for i, xi := range A.cand {
		for _, e := range A.out[A.off[xi]:A.off[xi+1]] {
			if j, ok := sw.cand(B, e.j); ok {
				xy[i*nb+j] = e.v
			}
		}
	}
	for j, yi := range B.cand {
		for _, e := range B.out[B.off[yi]:B.off[yi+1]] {
			if i, ok := sw.cand(A, e.j); ok {
				yx[i*nb+j] = e.v
			}
		}
	}
	bestGain := eps
	bestXi, bestYi := -1, -1
	for i, xi := range A.cand {
		for j, yi := range B.cand {
			w := xy[i*nb+j] + yx[i*nb+j]
			if gain := A.d[xi] + B.d[yi] - (w + w); gain > bestGain {
				bestGain, bestXi, bestYi = gain, xi, yi
			}
		}
	}
	if bestXi < 0 {
		return false
	}
	x, y := ga[bestXi], gb[bestYi]
	ga[bestXi], gb[bestYi] = y, x
	group[x], group[y] = b, a
	return true
}
