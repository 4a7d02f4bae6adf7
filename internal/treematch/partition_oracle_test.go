package treematch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/comm"
)

// The partition portfolio as it stood before a Mapper ran it in a kept
// working set: one closure per candidate, every candidate evaluated on a
// goroutine of its own (or one by one), all scores collected and the winner
// picked over the whole list. The candidates are the bodies they had then,
// in fresh memory at every step: every induced sub-matrix and aggregate is
// built anew, every grouping gets a fresh greedy fill and every spectral
// order a fresh scratch, so no reuse of a candidateSet's storage inside a
// candidate is shared with the production path. The spectral memo only
// saves work, so the oracle computes every order. oraclePartitionAcross
// and oraclePartitionAcrossWeighted drive the portfolio as PartitionAcross
// and PartitionAcrossWeighted did; Mapper.PartitionAcrossWeighted and the
// package function must match them group for group, member order included.

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
	s, peak := crossingStats(m, groups, new(crossingTables))
	return scoredPartition{groups: groups, intra: intraVolume(m, groups), streams: s, peak: peak}
}

// evalPartitionCandidates evaluates the portfolio — one goroutine per
// candidate when concurrent — and returns the per-candidate scores in the
// portfolio's fixed order.
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
// maximum intra-group volume first, then the fewest streams of the most
// exposed group, then the fewest crossing entities, in portfolio order.
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

// oracleGroup is Algorithm 1's grouping step in a fresh greedy fill.
func oracleGroup(m *comm.Matrix, a, passes int) [][]int {
	return groupProcesses(m, a, passes, new(affinityFill))
}

// oracleInduced is the sub-matrix ids induce on m in fresh storage, or m
// itself when ids is 0..m.Order()-1.
func oracleInduced(m *comm.Matrix, ids []int) (*comm.Matrix, error) {
	if isIdentity(ids, m.Order()) {
		return m, nil
	}
	return m.Submatrix(ids)
}

// oracleBisect is the recursive-bisection candidate: k equal groups of ids
// by bisecting the sub-matrix they induce; odd factors group directly.
func oracleBisect(m *comm.Matrix, ids []int, k, passes int) ([][]int, error) {
	if k == 1 {
		return [][]int{ids}, nil
	}
	sub, err := oracleInduced(m, ids)
	if err != nil {
		return nil, err
	}
	split := k
	if k%2 == 0 {
		split = 2
	}
	local := relabel(oracleGroup(sub, len(ids)/split, passes), ids)
	if split == k {
		return local, nil
	}
	var out [][]int
	for _, half := range local {
		deeper, err := oracleBisect(m, half, k/2, passes)
		if err != nil {
			return nil, err
		}
		out = append(out, deeper...)
	}
	return out, nil
}

// oracleMergeFine is the split-finer-then-merge candidate: 2k fine groups,
// aggregated, paired by affinity.
func oracleMergeFine(m *comm.Matrix, k, passes int) ([][]int, error) {
	fine := oracleGroup(m, m.Order()/(2*k), passes)
	agg, err := m.Aggregate(fine)
	if err != nil {
		return nil, err
	}
	return expand(oracleGroup(agg, 2, passes), fine), nil
}

// oracleCoarsen is the coarsening candidate: pair and aggregate until the
// coarse order is within 4k, partition the coarse graph and expand.
func oracleCoarsen(m *comm.Matrix, k, passes int) ([][]int, error) {
	cover := make([][]int, m.Order())
	for i := range cover {
		cover[i] = []int{i}
	}
	mat := m
	for mat.Order() > 4*k && mat.Order()%2 == 0 && (mat.Order()/2)%k == 0 {
		pairs := oracleGroup(mat, 2, passes)
		var err error
		if mat, err = mat.Aggregate(pairs); err != nil {
			return nil, err
		}
		cover = expand(pairs, cover)
	}
	return expand(oracleGroup(mat, mat.Order()/k, passes), cover), nil
}

// oracleSpectralOrder is the Fiedler order of the sub-matrix ids induce.
func oracleSpectralOrder(m *comm.Matrix, ids []int) ([]int, error) {
	sub, err := oracleInduced(m, ids)
	if err != nil {
		return nil, err
	}
	return spectralOrder(sub, new(spectralScratch)), nil
}

// oracleSpectral is the spectral-bisection candidate: halve ids at the
// Fiedler median, grouping directly when a level's factor is odd.
func oracleSpectral(m *comm.Matrix, ids []int, k, passes int) ([][]int, error) {
	if k == 1 {
		return [][]int{append([]int(nil), ids...)}, nil
	}
	if k%2 != 0 {
		sub, err := oracleInduced(m, ids)
		if err != nil {
			return nil, err
		}
		return relabel(oracleGroup(sub, len(ids)/k, passes), ids), nil
	}
	order, err := oracleSpectralOrder(m, ids)
	if err != nil {
		return nil, err
	}
	lo, hi := splitByOrder(ids, order, len(ids)/2)
	left, err := oracleSpectral(m, lo, k/2, passes)
	if err != nil {
		return nil, err
	}
	right, err := oracleSpectral(m, hi, k/2, passes)
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

// oracleSpectralSized is the capacity-weighted spectral candidate: split
// the size list where its prefix total is closest to half, and ids at the
// matching Fiedler rank.
func oracleSpectralSized(m *comm.Matrix, ids, sizes []int) ([][]int, error) {
	if len(sizes) == 1 {
		return [][]int{append([]int(nil), ids...)}, nil
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	split, prefix, bestGap := 1, sizes[0], math.Inf(1)
	run := 0
	for g := 0; g < len(sizes)-1; g++ {
		run += sizes[g]
		if gap := math.Abs(float64(2*run - total)); gap < bestGap {
			bestGap, split, prefix = gap, g+1, run
		}
	}
	order, err := oracleSpectralOrder(m, ids)
	if err != nil {
		return nil, err
	}
	lo, hi := splitByOrder(ids, order, prefix)
	left, err := oracleSpectralSized(m, lo, sizes[:split])
	if err != nil {
		return nil, err
	}
	right, err := oracleSpectralSized(m, hi, sizes[split:])
	if err != nil {
		return nil, err
	}
	return append(left, right...), nil
}

// equalPartitionCandidates assembles the equal-capacity portfolio in its
// fixed order. orig is the unpadded entity count.
func equalPartitionCandidates(work *comm.Matrix, orig, k, per int) []partitionCandidate {
	passes := partitionRefinePasses
	refined := func(groups [][]int, err error) ([][]int, error) {
		if err != nil {
			return nil, err
		}
		if k > 1 && per > 1 {
			refineGroups(work, groups, passes)
		}
		return groups, nil
	}
	p := work.Order()
	cands := []partitionCandidate{
		func() ([][]int, error) { return refined(oracleGroup(work, per, 0), nil) },
	}
	if k%2 == 0 {
		cands = append(cands, func() ([][]int, error) { return refined(oracleBisect(work, identityIDs(p), k, passes)) })
	}
	cands = append(cands, func() ([][]int, error) { return refined(oracleCoarsen(work, k, passes)) })
	if k > 1 && per%2 == 0 && per > 1 {
		cands = append(cands, func() ([][]int, error) { return refined(oracleMergeFine(work, k, passes)) })
	}
	if k%2 == 0 && per*k == orig && per > 1 {
		cands = append(cands, func() ([][]int, error) { return refined(oracleSpectral(work, identityIDs(p), k, passes)) })
	}
	return cands
}

// weightedPartitionCandidates assembles the capacity-weighted portfolio:
// the greedy fill, then the spectral split, each refined.
func weightedPartitionCandidates(m *comm.Matrix, sizes []int) []partitionCandidate {
	refined := func(groups [][]int, err error) ([][]int, error) {
		if err != nil {
			return nil, err
		}
		if len(sizes) > 1 {
			refineGroups(m, groups, partitionRefinePasses)
		}
		return groups, nil
	}
	return []partitionCandidate{
		func() ([][]int, error) { return refined(greedySizedGroups(m, sizes, new(affinityFill)), nil) },
		func() ([][]int, error) { return refined(oracleSpectralSized(m, identityIDs(m.Order()), sizes)) },
	}
}

// oraclePartitionAcross is PartitionAcross as it stood: fresh padding, the
// concurrent portfolio (or the multilevel driver), padding stripped by
// appending.
func oraclePartitionAcross(m *comm.Matrix, k int) ([][]int, error) {
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
		work, err = m.PadView(new(comm.Storage), per*k)
		if err != nil {
			return nil, err
		}
	}
	var best [][]int
	var err error
	if work.Order() > multilevelMinOrder {
		best, err = multilevelPartition(work, k, per, new(candidateSets))
	} else {
		best, err = pickPartition(evalPartitionCandidates(work, equalPartitionCandidates(work, p, k, per), true))
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

// oraclePartitionAcrossWeighted is PartitionAcrossWeighted as it stood.
func oraclePartitionAcrossWeighted(m *comm.Matrix, caps []int) ([][]int, error) {
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
		return oraclePartitionAcross(m, k)
	}
	p := m.Order()
	if p == 0 {
		return make([][]int, k), nil
	}
	sizes := weightedSizes(p, caps)
	var best [][]int
	if p > multilevelMinOrder {
		best = greedySizedGroups(m, sizes, new(affinityFill))
		if k > 1 {
			oracleRefineGroupsBoundary(m, best, partitionRefinePasses)
		}
	} else {
		var err error
		if best, err = pickPartition(evalPartitionCandidates(m, weightedPartitionCandidates(m, sizes), true)); err != nil {
			return nil, err
		}
	}
	for _, g := range best {
		slices.Sort(g)
	}
	return best, nil
}

// sameMatrix reports whether two matrices have the same order and every
// entry the same bits.
func sameMatrix(a, b *comm.Matrix) bool {
	if a.Order() != b.Order() {
		return false
	}
	for i := 0; i < a.Order(); i++ {
		for j := 0; j < a.Order(); j++ {
			if math.Float64bits(a.At(i, j)) != math.Float64bits(b.At(i, j)) {
				return false
			}
		}
	}
	return true
}

// partitionCase is one partition problem: a matrix and the capacities of
// the groups it is split into, with or without a spectral memo.
type partitionCase struct {
	name string
	m    *comm.Matrix
	caps []int
	memo bool
}

// partitionCases covers equal and mixed capacities, padded and exact
// equal splits, odd and even group counts, symmetric and asymmetric,
// lattice, ring and random matrices, orders on both sides of
// concurrentMinOrder, and the degenerate orders.
func partitionCases() []partitionCase {
	asym := comm.RandomSparse(14, 3, 50, 9)
	asym.AddSym(0, 5, 3.5) // one direction only, in its symmetric form
	return []partitionCase{
		{"lattice8x8-k4", comm.Stencil2DSparse(8, 8, 100, 0), []int{16, 16, 16, 16}, false},
		{"lattice8x8-k4-memo", comm.Stencil2DSparse(8, 8, 100, 0), []int{16, 16, 16, 16}, true},
		{"stencil4x3-8+6", comm.Stencil2DSparse(4, 3, 4096, 512), []int{8, 6}, true},
		{"ring30-k3", comm.Ring(30, 64), []int{10, 10, 10}, false},
		{"random36-k4-padded", comm.Random(34, 0.25, 512, 11), []int{9, 9, 9, 9}, true},
		{"random12-mixed-three", comm.RandomSparse(12, 3, 100, 5), []int{3, 8, 2}, false},
		{"random12-mixed-three-memo", comm.RandomSparse(12, 3, 100, 5), []int{3, 8, 2}, true},
		{"lattice6x4-k2", comm.Stencil2DSparse(6, 4, 100, 10), []int{4, 4}, true},
		{"asym14-mixed", asym, []int{8, 4, 4}, false},
		{"asym14-k2", asym, []int{4, 4}, true},
		{"pair", comm.Ring(2, 7), []int{1, 1}, false},
		{"ring5-k4-all-padding-group", comm.Ring(5, 3), []int{2, 2, 2, 2}, false},
		{"one", comm.New(1), []int{4, 4}, false},
		{"empty", comm.New(0), []int{4, 2}, false},
		{"stencil8x2-k8", comm.Stencil2DSparse(8, 2, 4096, 512), []int{2, 2, 2, 2, 2, 2, 2, 2}, true},
		{"random24-8+4+4", comm.Random(24, 0.5, 2048, 3), []int{8, 4, 4}, true},
		{"random40-8+4+4-concurrent", comm.Random(40, 0.3, 2048, 4), []int{8, 4, 4}, true},
	}
}

// requirePartitionOracle fails unless w partitions c as the oracle does, and
// returns the groups. With c.memo set the Mapper reads and fills memo, kept
// across its calls on c.m, and must still match the oracle, which computes
// every spectral order.
func requirePartitionOracle(t *testing.T, w *Mapper, c partitionCase, memo *SpectralMemo, st *comm.Storage) [][]int {
	t.Helper()
	var opt Options
	if c.memo {
		opt.Spectral = memo
	}
	got, err := w.PartitionAcrossWeighted(c.m, c.caps, opt)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	want, err := oraclePartitionAcrossWeighted(c.m, c.caps)
	if err != nil {
		t.Fatalf("%s: oracle: %v", c.name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Mapper gives %v, the oracle %v", c.name, got, want)
	}
	if c.m.Order() > 0 {
		agg, err := c.m.AggregateIn(st, got)
		if err != nil {
			t.Fatal(err)
		}
		wantAgg, err := c.m.Aggregate(want)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatrix(agg, wantAgg) {
			t.Fatalf("%s: the aggregate of the Mapper's groups differs from the oracle's", c.name)
		}
	}
	return got
}

// TestMapperPartitionMatchesOracle runs every case through one Mapper, in
// order and then in reverse, so orders and group counts grow and shrink, and
// requires each partition and its aggregate to equal the oracle's bit for
// bit. A result kept from earlier must not change while the Mapper
// partitions on, and the package functions must match the oracle too.
func TestMapperPartitionMatchesOracle(t *testing.T) {
	cases := partitionCases()
	back := slices.Clone(cases)
	slices.Reverse(back)
	cases = append(cases, back...)
	var w Mapper
	var st comm.Storage
	memos := map[*comm.Matrix]*SpectralMemo{}
	kept := make([][][]int, len(cases))
	for i, c := range cases {
		if memos[c.m] == nil {
			memos[c.m] = new(SpectralMemo)
		}
		kept[i] = requirePartitionOracle(t, &w, c, memos[c.m], &st)
		again := requirePartitionOracle(t, &w, c, memos[c.m], &st)
		for _, g := range again {
			for j := range g {
				g[j] = -7
			}
		}
		fresh, err := PartitionAcrossWeighted(c.m, c.caps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, kept[i]) {
			t.Fatalf("%s: the package function gives %v, the Mapper %v", c.name, fresh, kept[i])
		}
	}
	for i, c := range cases {
		want, err := oraclePartitionAcrossWeighted(c.m, c.caps)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], want) {
			t.Errorf("%s: result changed after the Mapper partitioned on", c.name)
		}
	}
}

// TestMapperPartitionAllocs pins a warmed Mapper's portfolio and the
// package function's, which runs on a fresh Mapper: the 4×3 stencil split
// 8 + 6 that TestSlotMapperAllocs' two-node case partitions and a 16-task
// 2 + 2 + 4 + 8 split with the spectral memo warm, both run one candidate
// after another, and the 8×8 lattice into 4, whose candidates run
// concurrently, each in its own kept set. What remains warmed is the group
// sizes, each candidate's groups, the spectral recursion's id lists and the
// goroutines, none of which a set holds; the package function also grows
// the fresh sets, makes the concurrent ones and, on first use, a set's
// storages. Before the sets, the package function made 44, 46 and 440
// allocations; before expand and the coarsening's cover took one array
// each, the lattice made 255 warmed and 349 fresh; while every fill tested
// the matrix's symmetry, the three made 14/32, 20/32 and 77/176. amd64 and
// 386 make as many.
func TestMapperPartitionAllocs(t *testing.T) {
	for _, pin := range []struct {
		name        string
		m           *comm.Matrix
		caps        []int
		memo        bool
		most, fresh float64
	}{
		{"stencil4x3-8+6", comm.Stencil2DSparse(4, 3, 4096, 512), []int{8, 6}, false, 13, 29},
		{"stencil4x4-2+2+4+8-memo", comm.Stencil2DSparse(4, 4, 4096, 512), []int{2, 2, 4, 8}, true, 19, 31},
		{"lattice8x8-k4-concurrent", comm.Stencil2DSparse(8, 8, 100, 0), []int{16, 16, 16, 16}, false, 68, 165},
	} {
		var w Mapper
		var opt Options
		if pin.memo {
			opt.Spectral = new(SpectralMemo)
		}
		call := func() {
			if _, err := w.PartitionAcrossWeighted(pin.m, pin.caps, opt); err != nil {
				t.Fatal(err)
			}
		}
		call()
		allocs := testing.AllocsPerRun(20, call)
		fresh := testing.AllocsPerRun(20, func() {
			if _, err := PartitionAcrossWeighted(pin.m, pin.caps, opt); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations warmed, %.0f on a fresh Mapper", pin.name, allocs, fresh)
		if allocs > pin.most {
			t.Errorf("%s: %.0f allocations per warmed call, want <= %.0f", pin.name, allocs, pin.most)
		}
		if fresh > pin.fresh {
			t.Errorf("%s: %.0f allocations per package call, want <= %.0f", pin.name, fresh, pin.fresh)
		}
	}
}

// TestPartitionAcrossWeightedBytes pins the package call's bytes
// (placement.Hierarchical and PartitionAcrossWeightedMatrix make one per
// placement), which runs in a partitioner whose storages are made on first
// use, not in a whole Mapper. The 4×3 stencil split 8 + 6 runs its
// candidates one after another: 3.3 KB, where the fill's own volume table
// made it 3.4 KB, the symmetry test of every fill 4.5 KB, the Mapper
// 6.3 KB and the per-candidate sets before it 4.6 KB. The 8×8 lattice into 4 lies above concurrentMinOrder, so its
// five candidates run at once, each in a set of its own: 59.0 KB, where
// the fill's own volume table and the padding strip's copy made it
// 61.7 KB.
func TestPartitionAcrossWeightedBytes(t *testing.T) {
	for _, pin := range []struct {
		name  string
		m     *comm.Matrix
		caps  []int
		bytes uint64
	}{
		{"stencil4x3-8+6", comm.Stencil2DSparse(4, 3, 4096, 512), []int{8, 6}, 3500},
		{"lattice8x8-k4-concurrent", comm.Stencil2DSparse(8, 8, 100, 0), []int{16, 16, 16, 16}, 60_000},
	} {
		got, _ := perCall(20, func() {
			if _, err := PartitionAcrossWeighted(pin.m, pin.caps, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %d bytes", pin.name, got)
		if got > pin.bytes {
			t.Errorf("%s: %d bytes per package call, want ≤ %d", pin.name, got, pin.bytes)
		}
	}
}

// TestPartitionPlaceScaleBytes pins the package call on both halves of
// place-scale: the stencil's 8100 tasks over 100 nodes of 8 cores and the
// random graph's 10 000 over 1000, each through the greedy fill and
// boundary KL on GOMAXPROCS workers. The pins are per GOMAXPROCS, 1, 2 or
// 4 (other values skip). Measured on amd64, the stencil costs 0.43, 0.48
// and 0.59 MB and the random graph 0.75, 0.85 and 1.04 MB; with a pair of
// order-n label tables and a failure buffer per boundary-KL worker, the
// fill's volume table and the strip's copy they cost 0.60, 0.74 and
// 1.03 MB and 0.98, 1.22 and 1.70 MB.
func TestPartitionPlaceScaleBytes(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, pin := range []struct {
		name  string
		m     *comm.Matrix
		nodes int
		bytes map[int]uint64
	}{
		{"stencil", comm.Stencil2DSparse(90, 90, 64, 8), 100, map[int]uint64{1: 435_000, 2: 490_000, 4: 595_000}},
		{"random", comm.RandomSparse(10000, 8, 100, 1), 1000, map[int]uint64{1: 760_000, 2: 855_000, 4: 1_045_000}},
	} {
		want, ok := pin.bytes[procs]
		if !ok {
			t.Skipf("pinned at GOMAXPROCS 1, 2 and 4, not %d", procs)
		}
		caps := make([]int, pin.nodes)
		for i := range caps {
			caps[i] = 8
		}
		got, _ := perCall(3, func() {
			if _, err := PartitionAcrossWeighted(pin.m, caps, Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s at GOMAXPROCS %d: %d bytes", pin.name, procs, got)
		if got > want {
			t.Errorf("%s at GOMAXPROCS %d: %d bytes per call, want ≤ %d", pin.name, procs, got, want)
		}
	}
}

// decodePartitionCase turns bytes into a partition problem: a sparse
// matrix of any order up to 40 but other, and up to five capacities,
// equal or mixed.
func decodePartitionCase(data []byte, other int) (partitionCase, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := next() % 41
	if p == other {
		p = (p + 1) % 41
	}
	caps := make([]int, next()%5+1)
	equal := next()%2 == 0
	for g := range caps {
		caps[g] = next()%8 + 1
		if equal {
			caps[g] = caps[0]
		}
	}
	m := comm.New(p)
	for edges := next() % 64; edges > 0 && p > 1; edges-- {
		i, j, v := next()%p, next()%p, next()
		if i != j {
			if v%3 == 0 { // one direction only, in its symmetric form
				m.AddSym(i, j, float64(v+1)/2)
			} else {
				m.AddSym(i, j, float64(v+1))
			}
		}
	}
	memo := next()%2 == 1
	return partitionCase{fmt.Sprintf("order %d into %v (memo %v)", p, caps, memo), m, caps, memo}, data
}

// FuzzMapperPartitionMatchesOracle decodes two partition problems of
// different orders from each input, runs both through one Mapper in turn
// and compares each with the oracle.
func FuzzMapperPartitionMatchesOracle(f *testing.F) {
	f.Add([]byte{12, 1, 0, 8, 6, 20, 0, 1, 9, 1, 2, 9, 3, 4, 9, 1, 30, 2, 1, 4, 4, 4, 40, 0, 1, 5, 2, 3, 5, 0})
	f.Add([]byte{16, 3, 0, 4, 40, 0, 1, 3, 1, 2, 3, 2, 3, 3, 4, 5, 3, 1, 9, 4, 1, 3, 2, 7, 10, 0, 1, 2, 1})
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 160)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		first, rest := decodePartitionCase(data, -1)
		second, _ := decodePartitionCase(rest, first.m.Order())
		var w Mapper
		var st comm.Storage
		requirePartitionOracle(t, &w, first, new(SpectralMemo), &st)
		requirePartitionOracle(t, &w, second, new(SpectralMemo), &st)
	})
}
