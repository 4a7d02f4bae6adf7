package treematch

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/comm"
)

// oracleRefineGroupsBoundary is refineGroupsBoundary as it stood before it
// ranked cuts without a map and priced swaps without m.At: a map of cuts per
// pass, a full sort whose comparator looks both cuts up, and fresh D, index
// and candidate slices per swap attempt. Kept verbatim (renamed) as the
// reference the kernel must match swap for swap.
func oracleRefineGroupsBoundary(m *comm.Matrix, groups [][]int, passes int) {
	k := len(groups)
	if k < 2 || passes <= 0 {
		return
	}
	n := m.Order()
	group := make([]int, n)
	for gi, g := range groups {
		for _, e := range g {
			group[e] = gi
		}
	}
	type gpair struct{ a, b int }
	for pass := 0; pass < passes; pass++ {
		cut := make(map[gpair]float64)
		for i := 0; i < n; i++ {
			m.ForEachNeighbor(i, func(j int, v float64) {
				gi, gj := group[i], group[j]
				if j == i || gi == gj {
					return
				}
				if gi > gj {
					gi, gj = gj, gi
				}
				cut[gpair{gi, gj}] += v
			})
		}
		if len(cut) == 0 {
			return
		}
		pairs := make([]gpair, 0, len(cut))
		for pr := range cut {
			pairs = append(pairs, pr)
		}
		sort.Slice(pairs, func(x, y int) bool {
			cx, cy := cut[pairs[x]], cut[pairs[y]]
			if cx != cy {
				return cx > cy
			}
			if pairs[x].a != pairs[y].a {
				return pairs[x].a < pairs[y].a
			}
			return pairs[x].b < pairs[y].b
		})
		if len(pairs) > maxBoundaryPairs*k {
			pairs = pairs[:maxBoundaryPairs*k]
		}
		improved := false
		for _, pr := range pairs {
			for s := 0; s < maxSwapsPerPair; s++ {
				if !oracleTryBestBoundarySwap(m, groups, group, pr.a, pr.b) {
					break
				}
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}

// oracleBoundaryD returns, for every member x of `members` (all in group own),
// D(x) = W(x, other) − W(x, own): the cut improvement of moving x across,
// ignoring the swap partner. Weights count both directions (v+v, symmetric).
func oracleBoundaryD(m *comm.Matrix, members []int, group []int, own, other int) []float64 {
	d := make([]float64, len(members))
	for idx, x := range members {
		var toOther, toOwn float64
		m.ForEachNeighbor(x, func(u int, v float64) {
			if u == x {
				return
			}
			switch group[u] {
			case other:
				toOther += v + v
			case own:
				toOwn += v + v
			}
		})
		d[idx] = toOther - toOwn
	}
	return d
}

// oracleTopByD returns the positions of the maxBoundaryCands best members by
// (D desc, entity index asc).
func oracleTopByD(g []int, d []float64) []int {
	idx := make([]int, len(g))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(p, q int) bool {
		if d[idx[p]] != d[idx[q]] {
			return d[idx[p]] > d[idx[q]]
		}
		return g[idx[p]] < g[idx[q]]
	})
	if len(idx) > maxBoundaryCands {
		idx = idx[:maxBoundaryCands]
	}
	return idx
}

// oracleTryBestBoundarySwap applies the single best positive-gain swap between
// groups a and b, restricted to each side's top candidate list, and reports
// whether it swapped. The gain of swapping x and y is
// D(x) + D(y) − 2·w(x,y), the standard KL expression.
func oracleTryBestBoundarySwap(m *comm.Matrix, groups [][]int, group []int, a, b int) bool {
	ga, gb := groups[a], groups[b]
	da := oracleBoundaryD(m, ga, group, a, b)
	db := oracleBoundaryD(m, gb, group, b, a)
	candA := oracleTopByD(ga, da)
	candB := oracleTopByD(gb, db)
	const eps = 1e-12
	bestGain := eps
	bestXi, bestYi := -1, -1
	for _, xi := range candA {
		x := ga[xi]
		for _, yi := range candB {
			y := gb[yi]
			w := m.At(x, y) + m.At(y, x)
			if gain := da[xi] + db[yi] - (w + w); gain > bestGain {
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

// checkBoundaryExact runs the oracle and, on 1, 2, 3 and 4 workers, the
// kernel from the same start and requires slice-equal groups (member order
// included).
func checkBoundaryExact(t *testing.T, name string, m *comm.Matrix, groups [][]int, passes int) {
	t.Helper()
	want := cloneGroups(groups)
	oracleRefineGroupsBoundary(m, want, passes)
	for _, workers := range []int{1, 2, 3, 4} {
		got := cloneGroups(groups)
		refineBoundary(m, got, passes, workers)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %d passes, %d workers: kernel and oracle disagree\n got %v\nwant %v", name, passes, workers, got, want)
		}
	}
}

// randomBoundaryMatrix draws a sparse matrix with the shapes the ranking and
// the pricing must stay exact on, read in its symmetric form: one-directional
// and unequal pairs, non-integer volumes, vertices left isolated, and — small
// integers half the time — plenty of exact cut and gain ties.
func randomBoundaryMatrix(rng *rand.Rand, n int) *comm.Matrix {
	a := denseZero(n)
	integer := rng.Intn(2) == 0
	val := func() float64 {
		if integer {
			return float64(1 + rng.Intn(3))
		}
		return rng.Float64() * 1000
	}
	isolated := make([]bool, n)
	for i := range isolated {
		isolated[i] = rng.Intn(8) == 0
	}
	degree := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		for d := 0; d < degree; d++ {
			j := rng.Intn(n)
			if isolated[i] || isolated[j] {
				continue
			}
			switch rng.Intn(4) {
			case 0: // one direction only
				a[i][j] = val()
			case 1: // zeroed, clearing an earlier draw
				val()
				a[i][j] = 0
			case 2: // unequal both ways
				a[i][j] = val()
				a[j][i] = val()
			default:
				v := val()
				a[i][j] += v
				a[j][i] += v
			}
		}
	}
	return symmetricForm(a)
}

// symmetricBoundaryMatrix draws a matrix through AddSym alone with the
// shapes the ranking must stay exact on: non-integer volumes, pairs added
// to more than once, diagonal entries, vertices left isolated, and — small
// integers half the time — plenty of exact cut and gain ties.
func symmetricBoundaryMatrix(rng *rand.Rand, n int) *comm.Matrix {
	m := comm.New(n)
	integer := rng.Intn(2) == 0
	val := func() float64 {
		v := rng.Float64() * 1000
		if integer {
			v = float64(1 + rng.Intn(3))
		}
		return v
	}
	degree := 1 + rng.Intn(6)
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			continue
		}
		for d := 0; d < degree; d++ {
			j := rng.Intn(n)
			if v := val(); rng.Intn(5) != 0 {
				m.AddSym(i, j, v)
			}
		}
	}
	return m
}

func TestRefineGroupsBoundaryMatchesOracle(t *testing.T) {
	// Both halves of the place-scale benchmark, from the greedy seeding the
	// multilevel driver refines: neither coarsens (per 81 is odd, per 10 is
	// below coarsePerTarget).
	stencil := comm.Stencil2DSparse(90, 90, 64, 8)
	checkBoundaryExact(t, "place-scale stencil", stencil, greedyGroups(stencil, 81, 100), partitionRefinePasses)
	for _, seed := range []int64{1, 42} {
		m := comm.RandomSparse(10000, 8, 100, seed)
		checkBoundaryExact(t, fmt.Sprintf("place-scale random seed %d", seed), m, greedyGroups(m, 10, 1000), partitionRefinePasses)
	}
	// Four passes carry the memo of failed pairs forward three times.
	random := comm.RandomSparse(10000, 8, 100, 1)
	checkBoundaryExact(t, "place-scale random seed 1", random, greedyGroups(random, 10, 1000), 4)

	rng, srng := rand.New(rand.NewSource(25)), rand.New(rand.NewSource(26))
	for c := 0; c < 60; c++ {
		n := 4 + rng.Intn(120)
		divisors := []int{}
		for k := 2; k <= n/2; k++ {
			if n%k == 0 {
				divisors = append(divisors, k)
			}
		}
		if len(divisors) == 0 {
			n++ // n prime: n+1 is even, so k = 2 divides it
			divisors = []int{2}
		}
		k := divisors[rng.Intn(len(divisors))]
		m := randomBoundaryMatrix(rng, n)
		checkBoundaryExact(t, fmt.Sprintf("random case %d (n=%d k=%d)", c, n, k), m, greedyGroups(m, n/k, k), 1+rng.Intn(4))
		// The same shape drawn through AddSym, from the greedy seeding and
		// with a tenth of the entities left out of their groups.
		sym := symmetricBoundaryMatrix(srng, n)
		start := greedyGroups(sym, n/k, k)
		checkBoundaryExact(t, fmt.Sprintf("symmetric case %d (n=%d k=%d)", c, n, k), sym, start, 1+srng.Intn(4))
		for gi, g := range start {
			start[gi] = slices.DeleteFunc(g, func(int) bool { return srng.Intn(10) == 0 })
		}
		checkBoundaryExact(t, fmt.Sprintf("symmetric case %d with orphans", c), sym, start, 1+srng.Intn(4))
	}

	// Candidate lists are capped: groups larger than maxBoundaryCands.
	big := randomBoundaryMatrix(rng, 400)
	checkBoundaryExact(t, "groups above the candidate cap", big, greedyGroups(big, 100, 4), 3)

	// Entities in no group count as group 0: 80 of 400 are left out of 40
	// groups, so the pairs with group 0 read them. The first pass ranks at
	// least 64 pairs, enough for every worker count to share levels.
	sparse := comm.RandomSparse(400, 4, 100, 9)
	perm := rand.New(rand.NewSource(9)).Perm(400)
	partial := make([][]int, 40)
	label := make([]int32, 400)
	for gi := range partial {
		partial[gi] = perm[8*gi : 8*gi+8]
		for _, e := range partial[gi] {
			label[e] = int32(gi)
		}
	}
	orphans := perm[8*len(partial):]
	var cw crew
	cw.hire(1)
	var cr cutRanker
	cr.init(sparse, label, partial, orphans, 1)
	if pairs := cr.rank(&cw); len(pairs) < 64 || !slices.ContainsFunc(pairs, func(p cutRec) bool { return p.a == 0 }) {
		t.Fatalf("entities in no group: %d ranked pairs, want ≥ 64 with some involving group 0", len(pairs))
	}
	cw.stop()
	checkBoundaryExact(t, "entities in no group", sparse, partial, 3)

	dense := comm.Random(60, 0.3, 1000, 5)
	dense.AddSym(3, 7, 11.5)
	checkBoundaryExact(t, "dense", dense, greedyGroups(dense, 6, 10), 3)
}

// TestRankCutsBitEqual pins the summation order of the cut ranking itself:
// swaps only notice a reordered sum when two cuts come within an ulp of each
// other, so each ranked cut is compared bit for bit with the per-pair map
// sum of the oracle, and the ranking with the oracle's full sort. The cases
// alternate between the two generators, and the ranker must have summed
// every cross-group entry once.
func TestRankCutsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 60; c++ {
		n := 20 + rng.Intn(200)
		k := 2 + rng.Intn(n/2)
		m := randomBoundaryMatrix(rng, n)
		if c%2 == 1 {
			m = symmetricBoundaryMatrix(rng, n)
		}
		group, groups := make([]int32, n), make([][]int, k)
		for e := range group {
			group[e] = int32(rng.Intn(k))
			groups[group[e]] = append(groups[group[e]], e)
		}
		for _, g := range groups { // member order is a swap's, not sorted
			rng.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		}
		type gpair struct{ a, b int32 }
		cut := make(map[gpair]float64)
		terms := 0
		for i := 0; i < n; i++ {
			m.ForEachNeighbor(i, func(j int, v float64) {
				gi, gj := group[i], group[j]
				if j == i || gi == gj {
					return
				}
				cut[gpair{min(gi, gj), max(gi, gj)}] += v
				terms++
			})
		}
		want := make([]cutRec, 0, len(cut))
		for pr, v := range cut {
			want = append(want, cutRec{pr.a, pr.b, v})
		}
		slices.SortFunc(want, byCut)
		if len(want) > maxBoundaryPairs*k {
			want = want[:maxBoundaryPairs*k]
		}
		for _, workers := range []int{1, 2, 3} {
			var cw crew
			cw.hire(workers)
			var cr cutRanker
			cr.init(m, group, groups, nil, workers)
			for pass := 0; pass < 2; pass++ { // the second pass reuses every buffer
				if got := cr.rank(&cw); !reflect.DeepEqual(got, want) {
					t.Fatalf("case %d pass %d (n=%d k=%d, %d workers): ranking differs\n got %v\nwant %v", c, pass, n, k, workers, got, want)
				}
				if cr.summed != terms {
					t.Fatalf("case %d pass %d (%d workers): %d terms summed, want the %d cross-group entries", c, pass, workers, cr.summed, terms)
				}
			}
			cw.stop()
		}
	}
}

// TestRankCutsPlaceScaleTerms pins the terms each ranking of place-scale's
// random half (seed 1, greedy seeding, two passes) adds up: every
// cross-group entry once, 142 102 before the first pass's swaps and 142 006
// after.
func TestRankCutsPlaceScaleTerms(t *testing.T) {
	m := comm.RandomSparse(10000, 8, 100, 1)
	groups := greedyGroups(m, 10, 1000)
	for pass, want := range []int{142102, 142006} {
		label := make([]int32, m.Order())
		for gi, g := range groups {
			for _, e := range g {
				label[e] = int32(gi)
			}
		}
		var cw crew
		cw.hire(2)
		var cr cutRanker
		cr.init(m, label, groups, nil, 2)
		cr.rank(&cw)
		cw.stop()
		if cr.summed != want {
			t.Errorf("pass %d: %d terms summed, want %d", pass+1, cr.summed, want)
		}
		refineBoundary(m, groups, 1, 2) // the first pass's swaps
	}
}

// FuzzRefineGroupsBoundaryExact decodes the input into a small sparse matrix
// (two bytes per entry: the entry's shape and a small volume, so cut and gain
// ties and one-directional entries are all one mutation away), read in its
// symmetric form, and a data-driven partition of uneven group sizes that
// leaves some entities in no group, and requires the kernel, on 1, 2, 3 and
// 4 workers, and the oracle to agree. The top bit of passes mirrors every
// entry as it is set, so that both halves of a pair hold the same volume.
func FuzzRefineGroupsBoundaryExact(f *testing.F) {
	f.Add(uint8(9), uint8(3), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(12), uint8(2), uint8(2), []byte{0x13, 0xf2, 0x21, 0x07, 0x33, 0x81, 0x40, 0x02})
	f.Add(uint8(30), uint8(5), uint8(4), []byte{0xff, 0x01, 0x80, 0x7f, 0x10, 0x20, 0x30, 0x41, 0x52, 0x63})
	f.Add(uint8(21), uint8(4), uint8(0x81), []byte{0x10, 0x2d, 0x25, 0x4e, 0x3a, 0x97, 0x0f, 0x68, 0x51, 0xb3, 0x46, 0x0a, 0x77, 0xdc, 0x5c, 0x31})
	f.Fuzz(func(t *testing.T, order, k, passes uint8, data []byte) {
		n, ng := 4+int(order)%60, 2+int(k)%6
		if len(data) == 0 {
			return
		}
		a := denseZero(n)
		set := func(i, j int, v float64) {
			a[i][j] = v
			if passes&0x80 != 0 {
				a[j][i] = v
			}
		}
		at := func(i int) byte { return data[i%len(data)] }
		for e := 0; 2*e+1 < len(data) && e < 6*n; e++ {
			shape, b := at(2*e), at(2*e+1)
			i, j := int(shape>>2)%n, int(b>>3)%n
			v := float64(b & 7)
			switch shape & 3 {
			case 0:
				set(i, j, v)
			case 1:
				set(i, j, 0)
			case 2:
				set(i, j, v+0.25)
			default:
				a[i][j] += v
				a[j][i] += v
			}
		}
		m := symmetricForm(a)
		groups := make([][]int, ng)
		for e := 0; e < n; e++ {
			if g := int(at(e)+at(e+len(data)/2)) % (ng + 1); g < ng {
				groups[g] = append(groups[g], (e+int(order))%n)
			}
		}
		checkBoundaryExact(t, "fuzz", m, groups, 1+int(passes)%4)
	})
}

// TestRefineGroupsBoundaryAllocs pins that the pass allocates per call, not
// per pair, level or swap attempt: a 2000-entity random graph in 200 groups
// ranks 800 pairs per pass in dozens of levels and makes well over a
// thousand attempts. The second worker adds its own swapper, failure buffer
// and goroutine, once per call.
func TestRefineGroupsBoundaryAllocs(t *testing.T) {
	m := comm.RandomSparse(2000, 8, 100, 3)
	start := greedyGroups(m, 10, 200)
	groups := cloneGroups(start)
	for _, workers := range []int{1, 2} {
		run := func() {
			for gi := range start {
				copy(groups[gi], start[gi])
			}
			refineBoundary(m, groups, partitionRefinePasses, workers)
		}
		if allocs := testing.AllocsPerRun(10, run); allocs > 32 {
			t.Errorf("%d workers: %v allocations per call, want ≤ 32 whatever the pair, level and attempt counts", workers, allocs)
		}
	}
}

// TestRefineGroupsBoundaryBytes pins the bytes of one call on place-scale's
// random half (seed 1, from the greedy seeding, two workers). Ranked group
// by group it holds no cross-group nonzero beyond one group's; the buffer
// of all of them (142 336 records, 2.28 MB) made 2.68 MB per call, and the
// per-worker order-n label tables 0.65 MB.
func TestRefineGroupsBoundaryBytes(t *testing.T) {
	m := comm.RandomSparse(10000, 8, 100, 1)
	start := greedyGroups(m, 10, 1000)
	groups := cloneGroups(start)
	got, _ := perCall(3, func() {
		for gi := range start {
			copy(groups[gi], start[gi])
		}
		refineBoundary(m, groups, partitionRefinePasses, 2)
	})
	if got > 470_000 {
		t.Errorf("%d bytes per call, want ≤ 0.47 MB", got)
	}
}

// TestRefineBoundaryBytesByWorkers pins what a call on place-scale's random
// half (seed 1, from the greedy seeding) costs at 1, 2, 4 and 8 workers,
// which are goroutines. The labels and positions are one table each and
// the failures one log, per call; a worker adds its ranking heap window,
// count tables, term buffers (sized for the largest group's rows, so no
// sweep grows them; its swapper records into them) and swapper scratch
// sized by the largest group, and its goroutine: four allocations and
// under 100 KB. Measured on amd64: 364 800, 461 392, 651 760 and
// 1 016 240 bytes, 16, 20, 28 and 44 allocations; 0.40, 0.65, 1.13 and
// 2.08 MB with an order-n label table pair and a failure buffer per worker.
// The worker count is refineBoundary's argument, not GOMAXPROCS, so the
// call is measured on one processor with the collector off: with more, a
// goroutine now and then finds no goroutine or channel-wait record of the
// runtime's to reuse and the runtime makes one (96 bytes each), which
// measures the scheduler, not the call. On one processor the counts are
// exact at every worker count.
func TestRefineBoundaryBytesByWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := comm.RandomSparse(10000, 8, 100, 1)
	start := greedyGroups(m, 10, 1000)
	groups := cloneGroups(start)
	var one uint64
	for _, pin := range []struct {
		workers       int
		bytes, allocs uint64
	}{{1, 370_000, 16}, {2, 465_000, 20}, {4, 655_000, 28}, {8, 1_025_000, 44}} {
		bytes, allocs := perCall(5, func() {
			for gi := range start {
				copy(groups[gi], start[gi])
			}
			refineBoundary(m, groups, partitionRefinePasses, pin.workers)
		})
		t.Logf("%d workers: %d bytes, %d allocations per call", pin.workers, bytes, allocs)
		if bytes > pin.bytes || allocs != pin.allocs {
			t.Errorf("%d workers: %d bytes and %d allocations per call, want ≤ %d and %d", pin.workers, bytes, allocs, pin.bytes, pin.allocs)
		}
		if pin.workers == 1 {
			one = bytes
		} else if pin.workers == 2 && bytes-one > 100_000 {
			t.Errorf("the second worker costs %d bytes, want ≤ 100 KB", bytes-one)
		}
	}
}
