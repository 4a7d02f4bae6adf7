package treematch

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/comm"
)

// candidate names one deterministic grouping heuristic of the partition
// portfolio. A candidate builds its groups from scratch, KL refinement
// included, in the candidateSet it is run in, and reads the matrix only, so
// candidates in sets of their own can run concurrently.
type candidate uint8

const (
	directCandidate        candidate = iota // k-way greedy grouping
	bisectCandidate                         // recursive bisection
	coarsenCandidate                        // pair, aggregate, partition the coarse graph, expand
	mergeCandidate                          // split finer, then merge pairs
	spectralCandidate                       // recursive spectral bisection
	greedySizedCandidate                    // the capacity-weighted greedy fill
	spectralSizedCandidate                  // the capacity-weighted spectral split
)

// candidateSet is the working memory candidates run in, reused by each one
// after the other: the greedy fill's tables, the spectral iteration's
// scratch, the storages of the induced sub-matrices and of the aggregates
// (coarsening alternates between two), and crossingStats' tables. A
// candidate's groups never live in it. The zero value is ready.
type candidateSet struct {
	fill     affinityFill
	spectral spectralScratch
	sub      *comm.Storage
	aggs     [2]*comm.Storage
	cross    crossingTables
}

// storage returns *st, made on first use, so that a working set carries
// only the storages its calls have needed.
func storage(st **comm.Storage) *comm.Storage {
	if *st == nil {
		*st = new(comm.Storage)
	}
	return *st
}

// partitioner is the working set of the node-level partition, the part of
// a Mapper that PartitionAcrossWeighted uses: the padding view's storage
// and the candidate sets the portfolio runs in. The zero value is ready.
type partitioner struct {
	pad  *comm.Storage
	cand candidateSets
}

// maxCandidates bounds a portfolio's candidates.
const maxCandidates = 5

// candidateSets holds the sets a portfolio runs in: the first for its
// candidates one after another, and one per candidate when they run at
// once, made on the first such run, so a caller that only partitions small
// matrices carries one set.
type candidateSets struct {
	first candidateSet
	each  []candidateSet
}

// concurrentMinOrder is the matrix order from which the portfolio runs its
// candidates on goroutines of their own. Below it the fan-out costs more
// than it overlaps: on 2 vCPUs of an Intel Xeon the package partitioner
// ties at order 24 (538 µs concurrent, 569 one after another), while at
// order 32 the concurrent run is 22 % faster and at 256 it is 43 % faster.
// The scheduler's jobs (2–16 tasks) stay below it; the fabric studies' and
// Hierarchical's node-level cuts lie above it.
const concurrentMinOrder = 32

// portfolio is one partition problem and its candidates, in the fixed
// order the best-pick breaks ties in.
type portfolio struct {
	work *comm.Matrix
	// Equal capacities: k groups of exactly per entities (work is padded to
	// k·per). Weighted: sizes[g] is the exact size of group g.
	k, per int
	sizes  []int
	memo   *SpectralMemo
	list   [maxCandidates]candidate
	n      int
}

func (p *portfolio) add(c candidate) { p.list[p.n], p.n = c, p.n+1 }

// candidates lists the portfolio's candidates in order.
func (p *portfolio) candidates() []candidate { return p.list[:p.n] }

// score is one evaluated candidate: its groups plus the exact quality
// metrics the best-pick compares (intra-group volume, crossing streams in
// total and for the most exposed group).
type score struct {
	groups        [][]int
	intra         float64
	streams, peak int
	err           error
}

// beats reports whether s wins over the best so far by the exact measured
// cut: maximum intra-group volume first (the total is fixed, so that is the
// minimum cut); among equal cuts the partition whose most exposed group
// sends the fewest streams across the boundary, then the fewest crossing
// entities overall — per-link fabric contention is set by the most
// contended NIC, so balancing the crossing streams matters even at equal
// cut volume.
func (s *score) beats(best *score) bool {
	return s.intra > best.intra ||
		(s.intra == best.intra && (s.peak < best.peak || (s.peak == best.peak && s.streams < best.streams)))
}

// run builds candidate c's groups in cs and refines them.
func (p *portfolio) run(c candidate, cs *candidateSet) ([][]int, error) {
	// The node-level cut is the expensive one (every cut byte crosses the
	// network), so refinement always runs here even when per-core grouping
	// of a matrix this size would skip it.
	w, passes := p.work, partitionRefinePasses
	var groups [][]int
	var err error
	switch c {
	case directCandidate:
		// Built unrefined: the KL passes run once, below.
		groups = groupProcesses(w, p.per, 0, &cs.fill)
	case bisectCandidate:
		groups, err = bisectPartition(w, identityIDs(w.Order()), p.k, passes, cs)
	case coarsenCandidate:
		groups, err = coarsenPartition(w, p.k, passes, cs)
	case mergeCandidate:
		groups, err = mergeFinePartition(w, p.k, passes, cs)
	case spectralCandidate:
		groups, err = spectralPartition(w, identityIDs(w.Order()), p.k, passes, p.memo, cs)
	case greedySizedCandidate:
		groups = greedySizedGroups(w, p.sizes, &cs.fill)
	case spectralSizedCandidate:
		groups, err = spectralPartitionSized(w, identityIDs(w.Order()), p.sizes, p.memo, cs)
	}
	if err != nil {
		return nil, err
	}
	if p.k > 1 && (p.sizes != nil || p.per > 1) {
		refineGroups(w, groups, passes)
	}
	return groups, nil
}

// evaluate runs candidate c in cs and scores it.
func (p *portfolio) evaluate(c candidate, cs *candidateSet) score {
	groups, err := p.run(c, cs)
	if err != nil {
		return score{err: err}
	}
	s, peak := crossingStats(p.work, groups, &cs.cross)
	return score{groups: groups, intra: intraVolume(p.work, groups), streams: s, peak: peak}
}

// pick returns the winning candidate's groups, or the first error in
// portfolio order. Below concurrentMinOrder the candidates run one after
// another in sets.first on the calling goroutine, each compared with the
// best so far as soon as it is scored; from it on candidate i runs in
// sets.each[i] on a goroutine of its own, and the scores are compared once
// all are in.
// Either way the comparisons are the same, in portfolio order, so the
// winner is too; nothing of a candidate's groups lives in a set, so holding
// the best costs no copy.
func (p *portfolio) pick(sets *candidateSets) ([][]int, error) {
	var scores []score
	if p.work.Order() >= concurrentMinOrder {
		scores = p.evaluateAll(sets)
	}
	best := score{intra: -1}
	for i, c := range p.candidates() {
		var s score
		if scores != nil {
			s = scores[i]
		} else {
			s = p.evaluate(c, &sets.first)
		}
		if s.err != nil {
			return nil, s.err
		}
		if s.beats(&best) {
			best = s
		}
	}
	return best.groups, nil
}

// evaluateAll scores candidate i in sets.each[i], all at once, one
// goroutine each. It works on a copy of the portfolio, so that the caller's
// does not escape.
func (p portfolio) evaluateAll(sets *candidateSets) []score {
	scores := make([]score, p.n)
	sets.each = grow(sets.each, maxCandidates)
	var wg sync.WaitGroup
	for i, c := range p.candidates() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores[i] = p.evaluate(c, &sets.each[i])
		}()
	}
	wg.Wait()
	return scores
}

// partitionEqual is the equal-capacity cut: the entities of the matrix in
// k ≥ 1 groups of capacity ceil(p/k), minimizing the communication volume
// cut between groups. This is the top stage of hierarchical two-level
// placement: the groups become the per-cluster-node task sets, so the cut
// is exactly the traffic that must cross the interconnect fabric. The
// matrix is padded with zero-volume virtual entities up to k·ceil(p/k) in
// w's padding storage; padding is stripped from the result, so the last
// groups may come back smaller. Group order is deterministic. No option
// changes the partition; opt.Spectral only saves the spectral candidate
// work it has done before.
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
// cut, measured exactly. The candidates run in w's candidate sets — one
// after another, or concurrently from concurrentMinOrder on (see pick) —
// and the winner is picked in fixed portfolio order.
func (w *partitioner) partitionEqual(m *comm.Matrix, k int, opt Options) ([][]int, error) {
	p := m.Order()
	if p == 0 {
		return make([][]int, k), nil
	}
	per := (p + k - 1) / k
	work := m
	if per*k > p {
		var err error
		if work, err = m.PadView(storage(&w.pad), per*k); err != nil {
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
		best, err = multilevelPartition(work, k, per, &w.cand)
	} else {
		pf := equalPortfolio(work, p, k, per, opt.Spectral)
		best, err = pf.pick(&w.cand)
	}
	if err != nil {
		return nil, err
	}
	// Strip the padding in place, each group capped at its real entities;
	// a group of padding alone becomes nil. Both branches build their
	// groups for this call (no candidate's groups live in a candidate set),
	// so no copy is needed.
	for gi, g := range best {
		kept := g[:0]
		for _, e := range g {
			if e < p {
				kept = append(kept, e)
			}
		}
		best[gi] = nil
		if len(kept) > 0 {
			best[gi] = kept[:len(kept):len(kept)]
		}
	}
	return best, nil
}

// equalPortfolio assembles the equal-capacity portfolio in its fixed order.
// orig is the unpadded entity count — work may carry zero-volume padding up
// to k·ceil(orig/k), and the spectral candidate must know the difference.
// memo (may be nil) serves the spectral candidate's orders.
func equalPortfolio(work *comm.Matrix, orig, k, per int, memo *SpectralMemo) portfolio {
	p := portfolio{work: work, k: k, per: per, memo: memo}
	p.add(directCandidate)
	// For odd k the bisection degenerates to the direct k-way grouping at
	// its top level, so the candidate would be a duplicate.
	if k%2 == 0 {
		p.add(bisectCandidate)
	}
	p.add(coarsenCandidate)
	// Split-finer-then-merge: partition into 2k half-size groups first, then
	// pair-merge them by aggregated affinity. The fine groups come out
	// compact, so the merged partition tends towards blocky shapes whose
	// crossing streams are balanced across the groups — the layouts direct
	// k-way grouping and recursive bisection miss when an equal-cut slice
	// partition exists.
	if k > 1 && per%2 == 0 && per > 1 {
		p.add(mergeCandidate)
	}
	// Spectral bisection, considered last so that ties keep the portfolio's
	// established winners. Only without padding (per·k equals the unpadded
	// order): zero-volume padding entities are isolated vertices whose
	// Laplacian component dominates the power iteration and drowns the
	// Fiedler direction.
	if k%2 == 0 && per*k == orig && per > 1 {
		p.add(spectralCandidate)
	}
	return p
}

// expand replaces every member e of every group by the entities cover[e]
// stands for, in order: the inverse of one aggregation step. The groups are
// capped windows of one array; a group that covers nothing stays nil.
func expand(groups, cover [][]int) [][]int {
	n := 0
	for _, g := range groups {
		for _, e := range g {
			n += len(cover[e])
		}
	}
	flat, out := make([]int, 0, n), make([][]int, len(groups))
	for gi, g := range groups {
		lo := len(flat)
		for _, e := range g {
			flat = append(flat, cover[e]...)
		}
		if len(flat) > lo {
			out[gi] = flat[lo:len(flat):len(flat)]
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
// node. With equal capacities it is the equal cut of partitionEqual,
// candidate portfolio included. Group order is deterministic and
// positional: group g always carries the size derived from caps[g]. It runs
// in fresh memory: a partitioner, the part of a Mapper a partition uses.
func PartitionAcrossWeighted(m *comm.Matrix, caps []int, opt Options) ([][]int, error) {
	return new(partitioner).PartitionAcrossWeighted(m, caps, opt)
}

// PartitionAcrossWeighted is the package's PartitionAcrossWeighted, equal
// capacities included, in the mapper's working set: the padding view, and
// the candidate sets the portfolio runs in (see pick). A Mapper kept
// between calls allocates little beyond the groups it returns, which are
// the caller's.
func (w *partitioner) PartitionAcrossWeighted(m *comm.Matrix, caps []int, opt Options) ([][]int, error) {
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
		return w.partitionEqual(m, k, opt)
	}
	p := m.Order()
	if p == 0 {
		return make([][]int, k), nil
	}
	sizes := weightedSizes(p, caps)
	var best [][]int
	if p > multilevelMinOrder {
		// Large instance: greedy seeding plus boundary-only refinement; the
		// full-KL portfolio below is unaffordable at this order.
		fill := &w.cand.first.fill
		best = greedySizedGroups(m, sizes, fill)
		if k > 1 {
			refineGroupsBoundary(m, best, partitionRefinePasses)
		}
	} else {
		pf := portfolio{work: m, k: k, sizes: sizes, memo: opt.Spectral}
		pf.add(greedySizedCandidate)
		pf.add(spectralSizedCandidate)
		var err error
		if best, err = pf.pick(&w.cand); err != nil {
			return nil, err
		}
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

// greedySizedGroups is the greedy grouping (uniform) generalized to
// per-group target sizes: groups are built largest-first (big groups
// constrain the solution most, so they pick coherent chunks before the
// leftovers fragment), each seeded with the heaviest-communicating
// ungrouped entity and filled by strongest affinity to the group so far —
// the sum, over its members in order, of w(last, j) = At(last, j) +
// At(j, last), ties broken towards the lowest entity index. The returned
// slice is positional: result[g] has exactly sizes[g] members.
//
// Only the neighbours of each added member are touched (O(nnz·log n); a
// scan of every entity per member is O(p²) per group and unusable at 100k
// tasks). The matrix equals its transpose, so the walk of row last with
// w = v + v reads that sum exactly. Volumes are positive, so a touched
// affinity is positive and every untouched entity ties at 0: the groups are
// bit for bit those of the every-entity scan kept as the oracle in
// greedy_oracle_test.go.
//
// f is the fill's working memory, which a Mapper keeps between calls. The
// groups never share it: they are windows of one array per call, each
// capped so that appending to a group reallocates it.
func greedySizedGroups(m *comm.Matrix, sizes []int, f *affinityFill) [][]int {
	p := m.Order()
	seedOrder, buildOrder := greedyOrders(m, sizes, f)
	f.grouped = grow(f.grouped, p)
	clear(f.grouped)
	f.stamp = grow(f.stamp, p)
	if f.h == nil {
		f.h = make(affHeap, 0, min(64, p))
	}
	f.low = 0
	members := make([]int, 0, p) // the sizes add up to at most p
	out := make([][]int, len(sizes))
	next := 0 // cursor into seedOrder
	for _, gi := range buildOrder {
		a := sizes[gi]
		if a == 0 {
			continue
		}
		for next < p && f.grouped[seedOrder[next]] {
			next++
		}
		seed := seedOrder[next]
		f.epoch++
		f.h = f.h[:0]
		lo := len(members)
		members = append(members, seed)
		f.grouped[seed] = true
		for len(members)-lo < a {
			m.ForEachNeighbor(members[len(members)-1], func(j int, v float64) { f.add(j, v+v) })
			e := f.pick()
			members = append(members, e)
			f.grouped[e] = true
		}
		out[gi] = members[lo:len(members):len(members)]
	}
	return out
}

// affinityFill is the working memory of greedySizedGroups: the grouped
// entities, the affinities to the group being filled with a lazy heap over
// them, and the orders the fill walks. Stamps only ever hold
// epochs of calls already made, so a reused fill needs no clearing of them.
type affinityFill struct {
	grouped []bool
	// affinity[j] is j's affinity to the group being filled, read only
	// where stamp[j] is the group's epoch, and set to 0 first; before the
	// fill it holds the row volumes, the seed order's key.
	affinity []float64
	stamp    []int // group (epoch) an affinity belongs to; 0 = never
	epoch    int
	h        affHeap
	low      int // lowest ungrouped entity (grouped is monotone)

	sizes       []int // uniform's sizes
	seed, build []int // seed and build orders
}

// grow returns s resized to n, reusing its array when it is large enough;
// the contents are not cleared.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// add credits w to ungrouped entity j's affinity to the group.
func (f *affinityFill) add(j int, w float64) {
	if f.grouped[j] {
		return
	}
	if f.stamp[j] != f.epoch {
		f.stamp[j], f.affinity[j] = f.epoch, 0
	}
	f.affinity[j] += w
	f.h.push(affEntry{f.affinity[j], j})
}

// pick returns the ungrouped entity of highest affinity, the lowest index
// among equals: the first heap entry of an ungrouped entity, or — no
// ungrouped entity touched, so every affinity is 0 — the lowest ungrouped
// entity. Affinities only grow, so an entity's newest entry pops before the
// stale ones, which it leaves behind grouped.
func (f *affinityFill) pick() int {
	for len(f.h) > 0 {
		if top := f.h.pop(); !f.grouped[top.e] {
			return top.e
		}
	}
	for f.grouped[f.low] {
		f.low++
	}
	return f.low
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
// descending target size, stable) of the greedy fill, in f's memory, the
// row volumes in its affinity table, which the fill then overwrites. The
// seed order is sorted with the index as the last key, which is the stable
// order: row volumes are sums of volumes ≥ 0, never NaN, so they are
// ordered.
func greedyOrders(m *comm.Matrix, sizes []int, f *affinityFill) (seedOrder, buildOrder []int) {
	p := m.Order()
	vol := grow(f.affinity, p)
	seedOrder = grow(f.seed, p)
	for i := range seedOrder {
		seedOrder[i] = i
		vol[i] = m.RowVolume(i)
	}
	slices.SortFunc(seedOrder, func(x, y int) int {
		if c := descending(vol[x], vol[y]); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})

	buildOrder = grow(f.build, len(sizes))
	for i := range buildOrder {
		buildOrder[i] = i
	}
	slices.SortStableFunc(buildOrder, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
	f.affinity, f.seed, f.build = vol, seedOrder, buildOrder
	return seedOrder, buildOrder
}

// affEntry is one lazy heap entry of the greedy fill: the affinity an entity
// had when pushed. Entries go stale when the affinity grows or the entity is
// grouped; stale entries are discarded on pop.
type affEntry struct {
	aff float64
	e   int
}

// affHeap is a max-heap by (affinity desc, entity index asc) — exactly the
// tie-break of a scan that takes the first strict maximum scanning indices
// upward. Typed rather than container/heap, which boxes every pushed entry.
// Two live entries of a group are equal in (aff, e) or ordered by it, so
// what pops first does not depend on the heap's layout.
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

// bisectPartition splits the given entities (len(ids) divisible by k) into k
// equal groups by recursive bisection on the sub-matrix they induce, in cs.
// Odd factors fall back to direct grouping at that level.
func bisectPartition(m *comm.Matrix, ids []int, k, passes int, cs *candidateSet) ([][]int, error) {
	if k == 1 {
		return [][]int{ids}, nil
	}
	sub, err := induced(m, ids, &cs.sub)
	if err != nil {
		return nil, err
	}
	split := k
	if k%2 == 0 {
		split = 2
	}
	local := relabel(groupProcesses(sub, len(ids)/split, passes, &cs.fill), ids)
	if split == k {
		return local, nil
	}
	var out [][]int
	for _, half := range local {
		deeper, err := bisectPartition(m, half, k/2, passes, cs)
		if err != nil {
			return nil, err
		}
		out = append(out, deeper...)
	}
	return out, nil
}

// mergeFinePartition is the split-finer-then-merge candidate: 2k fine groups
// of half the capacity, aggregated into a 2k-order matrix, then paired into
// the final k groups by affinity; it runs in cs.
func mergeFinePartition(m *comm.Matrix, k, passes int, cs *candidateSet) ([][]int, error) {
	fine := groupProcesses(m, m.Order()/(2*k), passes, &cs.fill)
	agg, err := m.AggregateIn(storage(&cs.aggs[0]), fine)
	if err != nil {
		return nil, err
	}
	return expand(groupProcesses(agg, 2, passes, &cs.fill), fine), nil
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
// grouping sees block-level weights instead of uniform lattice edges. The
// coarse matrices alternate between cs's two aggregate storages.
func coarsenPartition(m *comm.Matrix, k, passes int, cs *candidateSet) ([][]int, error) {
	cover, ids := make([][]int, m.Order()), identityIDs(m.Order())
	for i := range cover {
		cover[i] = ids[i : i+1 : i+1]
	}
	mat := m
	for level := 0; mat.Order() > 4*k && mat.Order()%2 == 0 && (mat.Order()/2)%k == 0; level++ {
		pairs := groupProcesses(mat, 2, passes, &cs.fill)
		var err error
		mat, err = mat.AggregateIn(storage(&cs.aggs[level%2]), pairs)
		if err != nil {
			return nil, err
		}
		cover = expand(pairs, cover)
	}
	return expand(groupProcesses(mat, mat.Order()/k, passes, &cs.fill), cover), nil
}

// groupProcesses partitions the p entities of the matrix into p/a groups of
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
// The greedy fill runs in f's memory.
func groupProcesses(m *comm.Matrix, a int, refinePasses int, f *affinityFill) [][]int {
	p := m.Order()
	if a <= 0 || p%a != 0 {
		panic("treematch: GroupProcesses requires a > 0 dividing the matrix order")
	}
	k := p / a
	groups := f.uniform(m, a, k)
	if refinePasses > 0 && k > 1 && a > 1 {
		refineGroups(m, groups, refinePasses)
	}
	for _, g := range groups {
		slices.Sort(g)
	}
	return groups
}

// uniform seeds each of k groups of a entities with the
// heaviest-communicating ungrouped entity and fills it with the ungrouped
// entities that have the strongest affinity to the group so far, in f's
// memory: the uniform-size special case of greedySizedGroups (the classic
// TreeMatch ordering).
func (f *affinityFill) uniform(m *comm.Matrix, a, k int) [][]int {
	f.sizes = grow(f.sizes, k)
	for i := range f.sizes {
		f.sizes[i] = a
	}
	return greedySizedGroups(m, f.sizes, f)
}

// refineScratch is the working memory of one refineGroups call: the
// symmetrized adjacency plus one int32 and one float64 block the kernel carves
// its tables from. Grow-only and kept between calls, because the scheduler's
// admission path refines thousands of order-10 partitions per second and the
// per-node pool of placement.Hierarchical refines on several goroutines at once.
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
// s + 0 == s otherwise. What is cached: each entity's own-group sum
// (rebuilt for the two groups a swap touches), and, while a group pair is
// scanned, every member's neighbours in the other group in position order
// with their sum. A pair (x, y) with no edge between them reads cx and cy
// from those sums; one with an edge re-adds the two lists without the
// partner. A group pair with no edge between it prices every (x, y) at
// (0 − ox) − oy, never positive for own sums of volumes ≥ 0, so it is
// skipped.
func refineGroups(m *comm.Matrix, groups [][]int, passes int) {
	sc := getRefineScratch()
	defer putRefineScratch(sc)
	adj := m.SymmetricAdjacency(&sc.adj)
	off, col, w := adj.Off, adj.Col, adj.W
	n, k := m.Order(), len(groups)
	if ni := 4*n + 2 + k + len(col); cap(sc.i32) < ni {
		sc.i32 = make([]int32, ni)
	}
	if nf := 3*n + len(col); cap(sc.f64) < nf {
		sc.f64 = make([]float64, nf)
	}
	ib, fb := sc.i32, sc.f64
	ints := func(c int) []int32 { s := ib[:c:c]; ib = ib[c:]; return s }
	floats := func(c int) []float64 { s := fb[:c:c]; fb = fb[c:]; return s }
	group, pos, mark := ints(n), ints(n), ints(k)
	la, lb, lidx := ints(n+1), ints(n+1), ints(len(col))
	own := floats(n)
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
	// inside g, added in position order.
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
				if mark[g2] != stamp {
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

// crossingTables is crossingStats' working memory: every entity's group,
// whether it crosses, and the crossing count of every group.
type crossingTables struct {
	group, perGroup []int
	crossing        []bool
}

// crossingStats counts the entities with at least one positive-volume edge
// leaving their group — the streams a partition sends across the fabric —
// in total and for the most exposed single group (the bottleneck NIC under
// per-link contention). A single sweep over the nonzero entries marks every
// entity whose row leaves its group, both endpoints of a cross-group pair
// since the matrix equals its transpose; the counts are integers, so the
// result is exactly the one the historical O(n²) scan produced. The tables
// live in t.
func crossingStats(m *comm.Matrix, groups [][]int, t *crossingTables) (total, peak int) {
	n := m.Order()
	group := grow(t.group, n)
	clear(group)
	for gi, g := range groups {
		for _, e := range g {
			group[e] = gi
		}
	}
	crossing := grow(t.crossing, n)
	clear(crossing)
	for i := 0; i < n; i++ {
		m.ForEachNeighbor(i, func(j int, _ float64) {
			if j != i && group[i] != group[j] {
				crossing[i] = true
			}
		})
	}
	perGroup := grow(t.perGroup, len(groups))
	clear(perGroup)
	for i, c := range crossing {
		if c {
			total++
			perGroup[group[i]]++
		}
	}
	t.group, t.crossing, t.perGroup = group, crossing, perGroup
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
