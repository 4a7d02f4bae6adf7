package treematch

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/comm"
)

// Multilevel outer driver of the equal-capacity cut (partitionEqual). Above
// multilevelMinOrder the candidate portfolio is unaffordable — greedy fill,
// KL refinement and the spectral iteration are all superlinear in the fine
// order — so the
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
	// multilevelMinOrder is the padded order above which partitionEqual
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
// sorted. The coarse portfolio and the greedy fill run in sets.
func multilevelPartition(work *comm.Matrix, k, per int, sets *candidateSets) ([][]int, error) {
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
		pf := equalPortfolio(mat, mat.Order(), k, perCur, nil)
		if groups, err = pf.pick(sets); err != nil {
			return nil, err
		}
	} else {
		fill := &sets.first.fill
		groups = fill.uniform(mat, perCur, k)
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
// applied).
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
// member order included, is the one the ranked order produces. The labels
// are one table (boundaryRun.group) that attempts read atomically and a
// swap writes atomically: an attempt on (a, b) may read the label of a
// neighbour that another worker is moving between its own c and d, and it
// reads c or d, before or after, never a or b, so its outcome does not
// depend on the timing. The cut sweep splits the groups among the workers
// (cutRanker).
// Everything is sized once per call, by the order, the groups and the
// longest row; no attempt or level allocates.
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
	labels := make([]int32, 2*n)
	r := &boundaryRun{m: m, groups: groups, group: labels[:n:n], pos: labels[n:], ws: make([]boundarySwapper, workers)}
	r.memo.init(k)
	largest := 0
	for gi, g := range groups {
		for i, e := range g {
			r.group[e], r.pos[e] = int32(gi)+1, int32(i)
		}
		largest = max(largest, len(g))
	}
	for e := range r.group {
		// An entity in no group counts as group 0, as it always has.
		if r.group[e]--; r.group[e] < 0 {
			r.group[e], r.orphans = 0, append(r.orphans, e)
		}
	}
	r.crew.hire(workers)
	defer r.crew.stop()
	r.ranker.init(m, r.group, groups, r.orphans, workers)
	for w := range r.ws {
		r.ws[w].init(largest, r.ranker.sweeps[w].both)
	}
	r.last, r.order = make([]int32, k), make([]levelPair, 0, maxBoundaryPairs*k)
	for pass := 0; pass < passes; pass++ {
		r.memo.nextPass()
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
// share. Within a level each group belongs to one worker, which alone
// writes its member slice, its members' labels and positions and its
// memo.ver entry, and alone reads the positions.
type boundaryRun struct {
	m      *comm.Matrix
	groups [][]int
	// group[e] is e's group, loaded and stored atomically while pairs run;
	// cutRanker reads it between passes. pos[e] is e's index in its
	// group's member slice.
	group, pos []int32
	orphans    []int // the entities in no group, which count as group 0
	memo       failMemo
	crew       crew
	ranker     cutRanker
	ws         []boundarySwapper // one per worker
	last       []int32           // last[g]: the last level a pair of group g took
	order      []levelPair       // this pass's ranked pairs, by level
	level      []levelPair       // the running level
	next       atomic.Int32      // the next unclaimed pair of the running level
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
			f.record(rec)
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
			f.record(failRec{a, b, f.ver[a], f.ver[b]})
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
	ver  []uint32  // ver[g] changes whenever group g takes part in a swap
	prev []failRec // the failures of the previous pass, sorted by (a, b)
	// log holds this pass's failures, skipped pairs included, so that the
	// pass after still sees them; a worker claims a record's slot with
	// logged.
	log    []failRec
	logged atomic.Int32
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
	l := maxBoundaryPairs * k
	recs := make([]failRec, 2*l)
	f.ver, f.prev, f.log = make([]uint32, k), recs[:0:l], recs[l:]
}

// record logs a failure of the running pass.
func (f *failMemo) record(rec failRec) { f.log[f.logged.Add(1)-1] = rec }

// fails reports whether the pair failed in the previous pass and neither
// group has swapped since, and if so the record to carry into this pass.
func (f *failMemo) fails(a, b int32) (failRec, bool) {
	p, ok := slices.BinarySearchFunc(f.prev, failRec{a: a, b: b}, cmpFailRec)
	if !ok || f.prev[p].va != f.ver[a] || f.prev[p].vb != f.ver[b] {
		return failRec{}, false
	}
	return f.prev[p], true
}

// nextPass makes the failures the workers logged so far the ones the new
// pass looks up. Pairs are unique within a pass, so the sorted records do
// not depend on which worker logged which, or in which slot.
func (f *failMemo) nextPass() {
	f.prev, f.log = f.log[:f.logged.Load()], f.prev[:cap(f.prev)]
	f.logged.Store(0)
	slices.SortFunc(f.prev, cmpFailRec)
}

// cutRec is the summed cut v of the group pair (a, b), a < b.
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
// refineGroupsBoundary call. Every cut adds its terms in global (row,
// column) order, the order a per-pair map over a row-major sweep adds them
// in. The matrix equals its transpose, so the terms of pair (a, b), a < b,
// are the entries of a's rows into b and their mirrors, the entries of b's
// rows into a: group a's own rows hold them all. The workers take the
// groups in turn, and each keeps the heaviest pairs it has summed in a
// bounded heap; nothing larger than one group's terms is buffered, and the
// buffers are sized for the most any group can hold, so no sweep grows
// them.
type cutRanker struct {
	m     *comm.Matrix
	group []int32 // group[e] is e's group
	// The members of every group, and the entities in no group, which
	// count as group 0; read group by group.
	groups  [][]int
	orphans []int
	k       int
	workers int
	summed  int      // the terms the last rank added up
	top     []cutRec // the workers' heaps, worker w's a window of it
	sweeps  []groupSweep
}

// init sizes the ranker for the groups of the matrix and the given number
// of workers; the labels and member lists are read afresh at every rank.
func (c *cutRanker) init(m *comm.Matrix, group []int32, groups [][]int, orphans []int, workers int) {
	k, largest := len(groups), 0
	for _, g := range groups {
		largest = max(largest, len(g))
	}
	n := entryBound(m, largest, len(orphans))
	*c = cutRanker{m: m, group: group, groups: groups, orphans: orphans, k: k, workers: workers}
	ints := make([]int32, 2*workers*k)
	c.top = make([]cutRec, workers*maxBoundaryPairs*k)
	c.sweeps = make([]groupSweep, workers)
	terms := make([]cutTerm, 4*workers*n)
	for w := range c.sweeps {
		s, t := &c.sweeps[w], terms[4*w*n:]
		s.count, s.partners = ints[2*w*k:(2*w+1)*k:(2*w+1)*k], ints[(2*w+1)*k:(2*w+1)*k:(2*w+2)*k]
		s.terms, s.byB, s.both = t[:0:n], t[n:2*n:2*n], t[2*n:2*n:4*n]
	}
}

// entryBound bounds the row entries of any group of at most largest
// members, with the given number of entities in no group added to it:
// neither more than every entry nor than the longest row each.
func entryBound(m *comm.Matrix, largest, orphans int) int {
	all, longest := 0, 0
	for i := range m.Order() {
		all, longest = all+m.RowNNZ(i), max(longest, m.RowNNZ(i))
	}
	return min(all, (largest+orphans)*longest)
}

// work is worker w's share of a sweep: its groups.
func (c *cutRanker) work(w int) { c.sweeps[w].sweep(c, w) }

// rank returns the maxBoundaryPairs·k heaviest cut pairs in byCut order:
// the workers' heaps one after another. Every pair that is among the l
// heaviest is among the l heaviest its worker summed, so they hold the l
// heaviest of all; that rests on byCut being a strict order, which it is,
// a cut of volumes ≥ 0 never being NaN.
func (c *cutRanker) rank(cw *crew) []cutRec {
	cw.do(c)
	pairs, l := c.top[:0], maxBoundaryPairs*c.k
	c.summed = 0
	for w := range c.sweeps {
		s := &c.sweeps[w]
		// Worker w's heap starts at w·l, at or past the pairs' end.
		pairs = append(pairs, c.top[w*l:w*l+s.heap]...)
		c.summed += s.summed
	}
	if len(pairs) > l {
		selectTop(pairs, l)
		pairs = pairs[:l]
	}
	slices.SortFunc(pairs, byCut)
	return pairs
}

// cutTerm is the entry v of row x, column u.
type cutTerm struct {
	x, u int32
	v    float64
}

// groupSweep is one worker's memory for ranking group by group.
type groupSweep struct {
	terms []cutTerm // the group's entries into later groups
	byB   []cutTerm // the same, partner by partner
	// both holds one partner's terms and their mirrors, never over
	// 2·len(byB); while pairs run, the worker's swapper records into it.
	both []cutTerm
	// count[b] counts the terms with partner b, then is the end of b's run
	// in byB; back to 0 once the group is done.
	count    []int32
	partners []int32 // the group's later partners, first seen first (at most k)
	heap     int     // the pairs in the worker's window of top
	summed   int
}

// sweep sums the cut of every pair (a, b), b > a, for worker w's groups a,
// and keeps the heaviest in its window of c.top.
func (s *groupSweep) sweep(c *cutRanker, w int) {
	l := maxBoundaryPairs * c.k
	top := c.top[w*l : w*l : (w+1)*l]
	s.summed = 0
	for a := int32(w); a < int32(c.k); a += int32(c.workers) {
		s.terms, s.partners = s.terms[:0], s.partners[:0]
		s.collect(c, a, c.groups[a])
		if a == 0 {
			s.collect(c, a, c.orphans)
		}
		// A counting sort by partner.
		end := int32(0)
		for _, b := range s.partners {
			s.count[b], end = end, end+s.count[b]
		}
		s.byB = s.byB[:len(s.terms)]
		for _, t := range s.terms {
			b := c.group[t.u]
			s.byB[s.count[b]] = t
			s.count[b]++
		}
		start := int32(0)
		for _, b := range s.partners {
			run := s.byB[start:s.count[b]]
			start, s.count[b] = s.count[b], 0
			top = offer(top, cutRec{a, b, s.cut(run)})
		}
		s.summed += 2 * len(s.terms)
	}
	s.heap = len(top)
}

// collect appends the entries of the members' rows into groups after a.
func (s *groupSweep) collect(c *cutRanker, a int32, members []int) {
	for _, x := range members {
		c.m.ForEachNeighbor(x, func(u int, v float64) {
			b := c.group[u]
			if b <= a {
				return
			}
			if s.count[b] == 0 {
				s.partners = append(s.partners, b)
			}
			s.count[b]++
			s.terms = append(s.terms, cutTerm{int32(x), int32(u), v})
		})
	}
}

// cut sums the terms of run, one pair's entries from the rows of its
// smaller group, and their mirrors, in global (row, column) order.
func (s *groupSweep) cut(run []cutTerm) float64 {
	if len(run) == 1 {
		// 0 + v is v (v is not zero), and the mirror adds v again.
		return run[0].v + run[0].v
	}
	both := append(s.both[:0], run...)
	for _, t := range run {
		both = append(both, cutTerm{t.u, t.x, t.v})
	}
	slices.SortFunc(both, func(p, q cutTerm) int {
		if p.x != q.x {
			return cmp.Compare(p.x, q.x)
		}
		return cmp.Compare(p.u, q.u)
	})
	s.both = both
	var v float64
	for _, t := range both {
		v += t.v
	}
	return v
}

// offer adds r to h, which keeps the cap(h) first by byCut of the pairs
// offered: a plain list until it is full, then a heap with the last of them
// at the root.
func offer(h []cutRec, r cutRec) []cutRec {
	if len(h) < cap(h) {
		if h = append(h, r); len(h) == cap(h) {
			for i := len(h)/2 - 1; i >= 0; i-- {
				siftDown(h, i)
			}
		}
	} else if after(h[0], r) {
		h[0] = r
		siftDown(h, 0)
	}
	return h
}

// siftDown moves h[i] below every child it comes before by byCut.
func siftDown(h []cutRec, i int) {
	r := h[i]
	for {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && after(h[j+1], h[j]) {
			j++
		}
		if !after(h[j], r) {
			break
		}
		h[i], i = h[j], j
	}
	h[i] = r
}

// after reports whether pair x comes after pair y by byCut.
func after(x, y cutRec) bool {
	return x.v < y.v || (x.v == y.v && (x.a > y.a || (x.a == y.a && x.b > y.b)))
}

// boundarySide is one group of the pair a swap attempt prices.
type boundarySide struct {
	members []int
	// d[p] = D(members[p]) = W(x, other) − W(x, own): the cut improvement of
	// moving the member across, ignoring the swap partner. Weights count
	// both directions (v+v, symmetric).
	d []float64
	// maxD is the largest D (-Inf with no members, NaN if any D is NaN).
	maxD float64
	// The member at position p has its nonzeros into the other group at
	// out[off[p]:off[p+1]], in column order. Only side A records them.
	off []int32
	out []cutTerm
	// cand holds the positions of the maxBoundaryCands best members by
	// (D desc, entity index asc); rank sorts it.
	cand []int
}

// measure computes D of the members of group own against group other,
// recording on the way, when record is set, the row entries a swap's w
// needs. group labels the entities; it is loaded atomically, as other
// workers relabel entities of groups other than own and other.
func (s *boundarySide) measure(m *comm.Matrix, members []int, group []int32, own, other int32, record bool) {
	s.members = members
	s.d, s.out = s.d[:len(members)], s.out[:0]
	s.maxD = math.Inf(-1)
	for p, x := range members {
		var toOther, toOwn float64
		m.ForEachNeighbor(x, func(u int, v float64) {
			if u == x {
				return
			}
			switch atomic.LoadInt32(&group[u]) {
			case other:
				toOther += v + v
				if record {
					s.out = append(s.out, cutTerm{int32(x), int32(u), v})
				}
			case own:
				toOwn += v + v
			}
		})
		s.d[p] = toOther - toOwn
		s.maxD = max(s.maxD, s.d[p])
		if record {
			s.off[p+1] = int32(len(s.out))
		}
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
// expression, with w(x, y) = At(x, y) + At(y, x) = v + v taken from the
// candidate row xy[j] = At(candA[i], candB[j]) of the i being priced,
// scattered from the entries measure recorded on side A (the matrix equals
// its transpose, so B's rows hold the same values). An absent entry reads
// 0, as At reads it; a recorded one is the stored value. Each worker owns
// one swapper.
type boundarySwapper struct {
	side [2]boundarySide
	xy   []float64
	// at[p] is the candidate index of side B's member at position p when it
	// is one of them; stale otherwise, so it is checked against the member.
	at []int32
}

// init sizes the swapper for groups of at most largest members, in one
// backing array per element type. Side A records into out, which must hold
// any group's row entries: the worker's sweep buffer, which is idle while
// pairs run.
func (sw *boundarySwapper) init(largest int, out []cutTerm) {
	c := min(largest, maxBoundaryCands)
	fs := make([]float64, 2*largest+c)
	is := make([]int32, 2*largest+1)
	cs := make([]int, 2*largest)
	*sw = boundarySwapper{at: is[:largest:largest], xy: fs[:c:c]}
	fs = fs[c:]
	for i := range sw.side {
		sw.side[i] = boundarySide{
			d:    fs[i*largest : (i+1)*largest : (i+1)*largest],
			cand: cs[i*largest : (i+1)*largest : (i+1)*largest],
		}
	}
	sw.side[0].off, sw.side[0].out = is[largest:], out
}

// try applies the single best positive-gain swap between groups a and b,
// restricted to each side's top candidate list, and reports whether it
// swapped.
func (sw *boundarySwapper) try(r *boundaryRun, a, b int32) bool {
	ga, gb := r.groups[a], r.groups[b]
	A, B := &sw.side[0], &sw.side[1]
	A.measure(r.m, ga, r.group, a, b, true)
	B.measure(r.m, gb, r.group, b, a, false)
	const eps = 1e-12
	// Every w(x, y) is ≥ 0, and rounded addition and subtraction are
	// monotone, so no gain exceeds maxD(A) + maxD(B). A +Inf or NaN maximum
	// makes the sum fail the test.
	if A.maxD+B.maxD <= eps {
		return false
	}
	A.rank()
	B.rank()
	xy := sw.xy[:len(B.cand)]
	for j, yi := range B.cand {
		sw.at[yi] = int32(j)
	}
	bestGain := eps
	bestXi, bestYi := -1, -1
	for _, xi := range A.cand {
		clear(xy)
		// e.u is labelled b, so the attempt owns its position; an entity
		// in no group has position 0, which names some other member.
		for _, e := range A.out[A.off[xi]:A.off[xi+1]] {
			if j := int(sw.at[r.pos[e.u]]); j < len(B.cand) && gb[B.cand[j]] == int(e.u) {
				xy[j] = e.v
			}
		}
		for j, yi := range B.cand {
			w := xy[j] + xy[j]
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
	atomic.StoreInt32(&r.group[x], b)
	atomic.StoreInt32(&r.group[y], a)
	r.pos[x], r.pos[y] = int32(bestYi), int32(bestXi)
	return true
}
