package treematch

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

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
			mat, equalPartitionCandidates(mat, mat.Order(), k, perCur, nil), true))
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
		groups = expand(groups, lv.pairs)
		refineGroupsBoundary(lv.mat, groups, passes)
	}
	for _, g := range groups {
		slices.Sort(g)
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
//
// The work runs on runtime.GOMAXPROCS(0) workers (crew), started once per
// call. The ranked pairs run in dependency levels (boundaryRun.schedule):
// an attempt on (a, b) reads and writes only the member slices of a and b
// and which entities are labelled a or b, the argument failMemo rests on,
// so pairs that share no group commute, and every group's final slice,
// member order included, is the one the ranked order produces. Each worker
// reads those labels from its own stamps (boundarySwapper.mark), never
// from a slice another worker writes. The cut sweep splits the rows into
// one consecutive range per worker (cutRanker).
// Everything is sized once per call; no attempt or level allocates.
func refineGroupsBoundary(m *comm.Matrix, groups [][]int, passes int) {
	refineBoundary(m, groups, passes, runtime.GOMAXPROCS(0))
}

// refineBoundary is refineGroupsBoundary on the given number of workers.
func refineBoundary(m *comm.Matrix, groups [][]int, passes, workers int) {
	k := len(groups)
	if k < 2 || passes <= 0 {
		return
	}
	n := m.Order()
	r := &boundaryRun{m: m, groups: groups, group: make([]int32, n), ws: make([]boundarySwapper, workers)}
	r.memo.init(k)
	largest := 0
	for gi, g := range groups {
		for _, e := range g {
			r.group[e] = int32(gi) + 1
		}
		largest = max(largest, len(g))
	}
	for e := range r.group {
		// An entity in no group counts as group 0, as it always has.
		if r.group[e]--; r.group[e] < 0 {
			r.group[e], r.orphans = 0, append(r.orphans, e)
		}
	}
	for w := range r.ws {
		r.ws[w].init(n, largest, k)
	}
	r.crew.hire(workers)
	defer r.crew.stop()
	r.ranker.init(m, r.group, k, workers)
	r.last, r.order = make([]int32, k), make([]levelPair, 0, maxBoundaryPairs*k)
	for pass := 0; pass < passes; pass++ {
		r.memo.nextPass(r.ws)
		pairs := r.ranker.rank(&r.crew)
		if len(pairs) == 0 {
			return
		}
		r.schedule(pairs)
		r.improved.Store(false)
		for lo := 0; lo < len(r.order); {
			hi := lo + 1
			for hi < len(r.order) && r.order[hi].lvl == r.order[lo].lvl {
				hi++
			}
			r.level, lo = r.order[lo:hi], hi
			r.next.Store(0)
			if len(r.level) == 1 {
				r.work(0)
			} else {
				r.crew.do(r)
			}
		}
		if !r.improved.Load() {
			return
		}
	}
}

// crew runs one job for each of its workers at once: worker 0 on the
// calling goroutine, the others on helper goroutines that live from hire
// to stop.
type crew struct {
	workers int
	job     job           // the running job, set before its indices are sent
	index   chan int      // hands a helper the worker index it runs the job for
	done    chan struct{} // one per finished index, then one per exited helper
}

// job is worker w's share of a crew's work.
type job interface{ work(w int) }

// hire sizes the crew and starts its workers-1 helpers.
func (c *crew) hire(workers int) {
	c.workers, c.index, c.done = workers, make(chan int), make(chan struct{})
	for range workers - 1 {
		go func() {
			for w := range c.index {
				c.job.work(w)
				c.done <- struct{}{}
			}
			c.done <- struct{}{}
		}()
	}
}

// do runs j for every worker and returns when all are done.
func (c *crew) do(j job) {
	c.job = j
	for w := 1; w < c.workers; w++ {
		c.index <- w
	}
	j.work(0)
	for w := 1; w < c.workers; w++ {
		<-c.done
	}
}

// stop ends the helpers and returns once they have exited.
func (c *crew) stop() {
	close(c.index)
	for w := 1; w < c.workers; w++ {
		<-c.done
	}
}

// boundaryRun is the state the workers of one refineGroupsBoundary call
// share. Within a level each group belongs to one worker, which alone reads
// and writes its member slice, its members' labels in group and its
// memo.ver entry.
type boundaryRun struct {
	m       *comm.Matrix
	groups  [][]int
	group   []int32 // group[e] is e's group; cutRanker reads it between passes
	orphans []int   // the entities in no group, which count as group 0
	memo    failMemo
	crew    crew
	ranker  cutRanker
	ws      []boundarySwapper // one per worker
	last    []int32           // last[g]: the last level a pair of group g took
	order   []levelPair       // this pass's ranked pairs, by level
	level   []levelPair       // the running level
	next    atomic.Int32      // the next unclaimed pair of the running level
	// improved records that some pair of the pass swapped.
	improved atomic.Bool
}

// levelPair is a ranked pair and its dependency level.
type levelPair struct{ lvl, a, b int32 }

// schedule orders one pass's ranked pairs by dependency level: a pair's
// level is one more than the last level either of its groups took, so a
// pair follows every earlier-ranked pair it shares a group with, and two
// pairs of one level share no group. Each level stays in ranked order.
func (r *boundaryRun) schedule(pairs []cutRec) {
	clear(r.last)
	r.order = r.order[:0]
	for _, pr := range pairs {
		lv := max(r.last[pr.a], r.last[pr.b]) + 1
		r.last[pr.a], r.last[pr.b] = lv, lv
		r.order = append(r.order, levelPair{lv, pr.a, pr.b})
	}
	slices.SortStableFunc(r.order, func(x, y levelPair) int { return cmp.Compare(x.lvl, y.lvl) })
}

// work has worker w claim pairs of the running level, and make each one's
// swaps, until none is left.
func (r *boundaryRun) work(w int) {
	sw, f := &r.ws[w], &r.memo
	for {
		i := int(r.next.Add(1)) - 1
		if i >= len(r.level) {
			return
		}
		a, b := r.level[i].a, r.level[i].b
		if rec, ok := f.fails(a, b); ok {
			sw.fails = append(sw.fails, rec)
			continue
		}
		s := 0
		for s < maxSwapsPerPair && sw.try(r, a, b) {
			s++
		}
		if s > 0 {
			r.improved.Store(true)
			f.ver[a]++
			f.ver[b]++
		}
		if s < maxSwapsPerPair {
			sw.fails = append(sw.fails, failRec{a, b, f.ver[a], f.ver[b]})
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
	// prev holds the failures of the previous pass sorted by (a, b). The
	// workers record this pass's, skipped pairs included, so that the pass
	// after still sees them.
	prev []failRec
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

// init sizes the memo for k groups: a pass ranks at most
// maxBoundaryPairs·k pairs, each recorded at most once.
func (f *failMemo) init(k int) {
	*f = failMemo{ver: make([]uint32, k), prev: make([]failRec, 0, maxBoundaryPairs*k)}
}

// fails reports whether the pair failed in the previous pass and neither
// group has swapped since, and if so the record to carry into this pass.
func (f *failMemo) fails(a, b int32) (failRec, bool) {
	p, ok := slices.BinarySearchFunc(f.prev, failRec{a: a, b: b}, cmpFailRec)
	if !ok || f.prev[p].va != f.ver[a] || f.prev[p].vb != f.ver[b] {
		return failRec{}, false
	}
	return f.prev[p], true
}

// nextPass makes the failures the workers recorded so far the ones the new
// pass looks up. Pairs are unique within a pass, so the sorted records do
// not depend on which worker recorded which.
func (f *failMemo) nextPass(ws []boundarySwapper) {
	f.prev = f.prev[:0]
	for i := range ws {
		f.prev = append(f.prev, ws[i].fails...)
		ws[i].fails = ws[i].fails[:0]
	}
	slices.SortFunc(f.prev, cmpFailRec)
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
func byCut(x, y cutRec) int {
	if x.v != y.v {
		return descending(x.v, y.v)
	}
	if c := cmp.Compare(x.a, y.a); c != 0 {
		return c
	}
	return cmp.Compare(x.b, y.b)
}

// selectTop moves the first l records of s by byCut into s[:l], in no
// particular order (quickselect around the middle record). Requires
// 0 < l < len(s).
func selectTop(s []cutRec, l int) {
	lo, hi := 0, len(s)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		s[mid], s[hi] = s[hi], s[mid]
		p := lo
		for i := lo; i < hi; i++ {
			if byCut(s[i], s[hi]) < 0 {
				s[i], s[p] = s[p], s[i]
				p++
			}
		}
		s[p], s[hi] = s[hi], s[p]
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
	m     *comm.Matrix
	group []int32
	// One pass's cross-group nonzeros bucketed by a; the pairs are summed
	// into byA in place.
	byA  []cutRec
	slot []int32 // slot[b]: where pair (a, b) of the bucket being summed sits in the pairs
	// at[w·k+a] counts worker w's entries of bucket a, then is the next
	// position they fill; once filled, the last worker's close the buckets.
	at      []int32
	workers int
	fill    bool // whether work counts or files
}

// init sizes the ranker for k groups of the order-n matrix and the given
// number of workers; group is read afresh at every rank.
func (c *cutRanker) init(m *comm.Matrix, group []int32, k, workers int) {
	ints := make([]int32, (1+workers)*k)
	*c = cutRanker{m: m, group: group, slot: ints[:k:k], at: ints[k:], workers: workers}
}

// work sweeps worker w's share of the rows, in order, and counts (!fill)
// or files under the smaller group of its pair (fill) every cross-group
// entry.
func (c *cutRanker) work(w int) {
	k, n, fill := len(c.slot), c.m.Order(), c.fill
	at := c.at[w*k : (w+1)*k]
	for i := w * n / c.workers; i < (w+1)*n/c.workers; i++ {
		gi := c.group[i]
		c.m.ForEachNeighbor(i, func(j int, v float64) {
			gj := c.group[j]
			if j == i || gi == gj {
				return
			}
			a := min(gi, gj)
			if fill {
				c.byA[at[a]] = cutRec{a, max(gi, gj), v}
			}
			at[a]++
		})
	}
}

// rank returns the maxBoundaryPairs·k heaviest cut pairs in byCut order.
// The workers sweep consecutive row ranges, once to count each bucket's
// entries and once to file them; worker w's share of bucket a follows the
// shares of the workers before it, so every bucket holds its entries in
// global (row, column) order, and summing bucket a pair by pair adds the
// terms of each cut in the order a per-pair map would have.
func (c *cutRanker) rank(cw *crew) []cutRec {
	clear(c.at)
	c.fill = false
	cw.do(c)
	k, pos := len(c.slot), int32(0)
	for a := range k {
		for w := a; w < len(c.at); w += k {
			c.at[w], pos = pos, pos+c.at[w]
		}
	}
	c.byA = slices.Grow(c.byA[:0], int(pos))[:pos]
	c.fill = true
	cw.do(c)
	byA, end := c.byA, c.at[len(c.at)-k:]
	// Bucket a is now byA[end[a-1]:end[a]]. Pair p is appended while
	// reading entry q ≥ p (every earlier pair took an earlier entry), so
	// the pairs overwrite only entries already read. A stale slot from an
	// earlier bucket or pass cannot name the current (a, b): pairs holds
	// each pair at most once, and only bucket a appends pairs with that a.
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
	slices.SortFunc(pairs, byCut)
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

// measure computes D of the members of group own against group other,
// recording on the way the row entries a swap's w needs. mark labels the
// entities of the two groups with own and other.
func (s *boundarySide) measure(m *comm.Matrix, members []int, mark []int32, own, other int32) {
	s.members = members
	s.d, s.off, s.out = s.d[:len(members)], s.off[:len(members)+1], s.out[:0]
	s.maxD, s.neg = math.Inf(-1), false
	for p, x := range members {
		var toOther, toOwn float64
		m.ForEachNeighbor(x, func(u int, v float64) {
			if u == x {
				return
			}
			switch mark[u] {
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
	slices.SortFunc(s.cand, func(p, q int) int {
		if dp, dq := s.d[p], s.d[q]; dp != dq {
			return descending(dp, dq)
		}
		return cmp.Compare(s.members[p], s.members[q])
	})
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
// Each worker owns one swapper.
type boundarySwapper struct {
	side [2]boundarySide
	// slot[e] is e's position in its side's candidate list when e is a
	// candidate of the attempt; stale otherwise, so it is checked (cand).
	slot   []int32
	xy, yx []float64
	// mark[e] is epoch when e counts as group a of the attempt and epoch+1
	// when as b; an older value is neither. Private to the swapper, so an
	// attempt never reads a label another worker writes.
	mark  []int32
	epoch int32
	fails []failRec // the failures this worker recorded in the pass
}

// cand reports the candidate position of entity u on side s, if u is one.
func (sw *boundarySwapper) cand(s *boundarySide, u int32) (int, bool) {
	c := int(sw.slot[u])
	return c, c < len(s.cand) && s.members[s.cand[c]] == int(u)
}

// init sizes the swapper for an order-n matrix in k groups whose largest
// has the given size, in one backing array per element type.
func (sw *boundarySwapper) init(n, largest, k int) {
	c := min(largest, maxBoundaryCands)
	fs := make([]float64, 2*largest+2*c*c)
	is := make([]int32, 2*n+2*(largest+1))
	cs := make([]int, 2*largest)
	*sw = boundarySwapper{slot: is[:n:n], mark: is[n : 2*n : 2*n], xy: fs[: c*c : c*c], yx: fs[c*c : 2*c*c : 2*c*c]}
	sw.fails = make([]failRec, 0, maxBoundaryPairs*k)
	fs, is = fs[2*c*c:], is[2*n:]
	for i := range sw.side {
		sw.side[i] = boundarySide{
			d:    fs[i*largest : (i+1)*largest : (i+1)*largest],
			off:  is[i*(largest+1) : (i+1)*(largest+1) : (i+1)*(largest+1)],
			cand: cs[i*largest : (i+1)*largest : (i+1)*largest],
		}
	}
}

// try applies the single best positive-gain swap between groups a and b,
// restricted to each side's top candidate list, and reports whether it
// swapped.
func (sw *boundarySwapper) try(r *boundaryRun, a, b int32) bool {
	ga, gb := r.groups[a], r.groups[b]
	if sw.epoch >= math.MaxInt32-2 {
		clear(sw.mark)
		sw.epoch = 0
	}
	sw.epoch += 2
	la, lb := sw.epoch, sw.epoch+1
	sw.stamp(ga, a, la, r.orphans)
	sw.stamp(gb, b, lb, r.orphans)
	A, B := &sw.side[0], &sw.side[1]
	A.measure(r.m, ga, sw.mark, la, lb)
	B.measure(r.m, gb, sw.mark, lb, la)
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
	r.group[x], r.group[y] = b, a
	return true
}

// stamp labels the members of group g, and for group 0 the entities in no
// group, with label.
func (sw *boundarySwapper) stamp(members []int, g int32, label int32, orphans []int) {
	for _, e := range members {
		sw.mark[e] = label
	}
	if g == 0 {
		for _, e := range orphans {
			sw.mark[e] = label
		}
	}
}
