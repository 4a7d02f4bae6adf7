package treematch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
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
// included): ranking through the buffer always, and group by group too when
// the matrix is symmetric. It reports whether it took the second path.
func checkBoundaryExact(t *testing.T, name string, m *comm.Matrix, groups [][]int, passes int) bool {
	t.Helper()
	want := cloneGroups(groups)
	oracleRefineGroupsBoundary(m, want, passes)
	symmetric := m.IsSymmetric()
	for _, byGroup := range []bool{false, true} {
		if byGroup && !symmetric {
			break
		}
		for _, workers := range []int{1, 2, 3, 4} {
			got := cloneGroups(groups)
			refineBoundary(m, got, passes, workers, byGroup)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d passes, %d workers, group by group %v: kernel and oracle disagree\n got %v\nwant %v", name, passes, workers, byGroup, got, want)
			}
		}
	}
	return symmetric
}

// randomBoundaryMatrix draws a sparse matrix with the shapes the ranking and
// the pricing must stay exact on: one-directional entries, non-integer
// volumes, explicit stored zeros, vertices left isolated, and — small
// integers half the time — plenty of exact cut and gain ties.
func randomBoundaryMatrix(rng *rand.Rand, n int) *comm.Matrix {
	m := comm.New(n)
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
				m.Set(i, j, val())
			case 1: // stored, then zeroed: an explicit zero
				m.Set(i, j, val())
				m.Set(i, j, 0)
			case 2: // asymmetric both ways
				m.Set(i, j, val())
				m.Set(j, i, val())
			default:
				m.AddSym(i, j, val())
			}
		}
	}
	return m
}

// symmetricBoundaryMatrix draws a matrix equal to its transpose with the
// shapes the group-by-group ranking must stay exact on: negative and
// non-integer volumes, explicit zeros stored on one side only, diagonal
// entries, vertices left isolated, and — small integers half the time —
// plenty of exact cut and gain ties.
func symmetricBoundaryMatrix(rng *rand.Rand, n int) *comm.Matrix {
	m := comm.New(n)
	integer := rng.Intn(2) == 0
	val := func() float64 {
		v := rng.Float64() * 1000
		if integer {
			v = float64(1 + rng.Intn(3))
		}
		if rng.Intn(4) == 0 {
			v = -v
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
			switch v := val(); {
			case j == i:
				m.Set(i, i, v)
			case rng.Intn(5) == 0: // stored, then zeroed: an explicit zero
				m.Set(i, j, v)
				m.Set(i, j, 0)
				m.Set(j, i, 0)
			default:
				m.Set(i, j, v)
				m.Set(j, i, v)
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

	// Both sides have maxD = 0, so the D-sum bound alone would call the pair
	// hopeless, but the negative w(0, 3) makes swapping 0 and 3 gain 4: the
	// bound must not fire while a recorded entry is negative.
	mixed := comm.New(6)
	for _, e := range []struct {
		i, j int
		v    float64
	}{{0, 3, -1}, {0, 4, 1}, {4, 5, 1.5}, {3, 1, 1}, {1, 2, 1.5}} {
		mixed.AddSym(e.i, e.j, e.v)
	}
	groups := [][]int{{0, 1, 2}, {3, 4, 5}}
	checkBoundaryExact(t, "mixed signs", mixed, groups, 1)
	refineGroupsBoundary(mixed, groups, 1, true)
	if want := [][]int{{3, 1, 2}, {0, 4, 5}}; !reflect.DeepEqual(groups, want) {
		t.Fatalf("mixed signs: got %v, want 0 and 3 swapped: %v", groups, want)
	}

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
		// The same shape symmetric, from the greedy seeding and with a
		// tenth of the entities left out of their groups.
		sym := symmetricBoundaryMatrix(srng, n)
		start := greedyGroups(sym, n/k, k)
		if !checkBoundaryExact(t, fmt.Sprintf("symmetric case %d (n=%d k=%d)", c, n, k), sym, start, 1+srng.Intn(4)) {
			t.Fatalf("symmetric case %d: the matrix is not symmetric", c)
		}
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
	for _, byGroup := range []bool{false, true} {
		var cw crew
		cw.hire(1)
		var cr cutRanker
		cr.init(sparse, label, partial, orphans, 1, byGroup)
		if pairs := cr.rank(&cw); len(pairs) < 64 || !slices.ContainsFunc(pairs, func(p cutRec) bool { return p.a == 0 }) {
			t.Fatalf("entities in no group, group by group %v: %d ranked pairs, want ≥ 64 with some involving group 0", byGroup, len(pairs))
		}
		cw.stop()
	}
	if !checkBoundaryExact(t, "entities in no group", sparse, partial, 3) {
		t.Fatal("entities in no group: the matrix is not symmetric")
	}

	dense := comm.Random(60, 0.3, 1000, 5)
	dense.Set(3, 7, 11.5) // asymmetric
	checkBoundaryExact(t, "dense", dense, greedyGroups(dense, 6, 10), 3)
}

// TestRankCutsBitEqual pins the summation order of the cut ranking itself:
// swaps only notice a reordered sum when two cuts come within an ulp of each
// other, so each ranked cut is compared bit for bit with the per-pair map
// sum of the oracle, and the ranking with the oracle's full sort. Every
// other case is symmetric, and those are ranked both ways; either way the
// ranker must have summed every cross-group entry once.
func TestRankCutsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 60; c++ {
		n := 20 + rng.Intn(200)
		k := 2 + rng.Intn(n/2)
		m := randomBoundaryMatrix(rng, n)
		if c%2 == 1 {
			if m = symmetricBoundaryMatrix(rng, n); !m.IsSymmetric() {
				t.Fatalf("case %d: the matrix is not symmetric", c)
			}
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
		for _, byGroup := range []bool{false, true} {
			if byGroup && c%2 == 0 {
				break
			}
			for _, workers := range []int{1, 2, 3} {
				var cw crew
				cw.hire(workers)
				var cr cutRanker
				cr.init(m, group, groups, nil, workers, byGroup)
				for pass := 0; pass < 2; pass++ { // the second pass reuses every buffer
					if got := cr.rank(&cw); !reflect.DeepEqual(got, want) {
						t.Fatalf("case %d pass %d (n=%d k=%d, %d workers, group by group %v): ranking differs\n got %v\nwant %v", c, pass, n, k, workers, byGroup, got, want)
					}
					if cr.summed != terms {
						t.Fatalf("case %d pass %d (%d workers, group by group %v): %d terms summed, want the %d cross-group entries", c, pass, workers, byGroup, cr.summed, terms)
					}
				}
				cw.stop()
			}
		}
	}
}

// TestRankCutsNaNFallsBack: opposite infinities sum to a NaN cut, which
// byCut orders with nothing, so the heaps would keep pairs the selection
// does not; ranking group by group must then give the buffer's ranking,
// bit for bit, on every worker count.
func TestRankCutsNaNFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	nans := 0
	for c := 0; c < 40; c++ {
		n := 20 + rng.Intn(60)
		k := 2 + rng.Intn(6)
		m := symmetricBoundaryMatrix(rng, n)
		for range 1 + rng.Intn(4) {
			i, j := rng.Intn(n), rng.Intn(n)
			v := math.Inf(1 - 2*rng.Intn(2))
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
		if !m.IsSymmetric() {
			t.Fatalf("case %d: the matrix is not symmetric", c)
		}
		group, groups := make([]int32, n), make([][]int, k)
		for e := range group {
			group[e] = int32(rng.Intn(k))
			groups[group[e]] = append(groups[group[e]], e)
		}
		rank := func(workers int, byGroup bool) (string, bool) {
			var cw crew
			cw.hire(workers)
			defer cw.stop()
			var cr cutRanker
			cr.init(m, group, groups, nil, workers, byGroup)
			return fmt.Sprint(cr.rank(&cw)), byGroup && !cr.symmetric
		}
		want, _ := rank(1, false)
		for _, workers := range []int{1, 2, 3} {
			got, fell := rank(workers, true)
			if got != want {
				t.Fatalf("case %d, %d workers: group by group %s, buffered %s", c, workers, got, want)
			}
			if fell != strings.Contains(want, "NaN") {
				t.Fatalf("case %d, %d workers: fell back %v on ranking %s", c, workers, fell, want)
			}
			if fell {
				nans++
			}
		}
	}
	if nans == 0 {
		t.Fatal("no case summed a NaN cut")
	}
}

// TestRankCutsPlaceScaleTerms pins the terms each ranking of place-scale's
// random half (seed 1, greedy seeding, two passes) adds up: every
// cross-group entry once, 142 102 before the first pass's swaps and 142 006
// after, whether the buffer files them or each group's rows yield them.
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
		for _, byGroup := range []bool{false, true} {
			var cw crew
			cw.hire(2)
			var cr cutRanker
			cr.init(m, label, groups, nil, 2, byGroup)
			cr.rank(&cw)
			cw.stop()
			if cr.summed != want {
				t.Errorf("pass %d, group by group %v: %d terms summed, want %d", pass+1, byGroup, cr.summed, want)
			}
		}
		refineBoundary(m, groups, 1, 2, true) // the first pass's swaps
	}
}

// FuzzRefineGroupsBoundaryExact decodes the input into a small sparse matrix
// (two bytes per entry: the entry's shape and a small signed volume, so cut
// and gain ties, explicit zeros and one-directional entries are all one
// mutation away) and a data-driven partition of uneven group sizes that
// leaves some entities in no group, and requires the kernel, on 1, 2, 3 and
// 4 workers, and the oracle to agree. The top bit of passes symmetrises the
// matrix — every entry is mirrored as it is set — so that the group-by-group
// ranking runs too; the decoded matrices are rarely symmetric otherwise.
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
		m := comm.New(n)
		set := m.Set
		if passes&0x80 != 0 {
			set = func(i, j int, v float64) {
				m.Set(i, j, v)
				m.Set(j, i, v)
			}
		}
		at := func(i int) byte { return data[i%len(data)] }
		for e := 0; 2*e+1 < len(data) && e < 6*n; e++ {
			shape, b := at(2*e), at(2*e+1)
			i, j := int(shape>>2)%n, int(b>>3)%n
			v := float64(int(b&7) - 3)
			switch shape & 3 {
			case 0:
				set(i, j, v)
			case 1:
				set(i, j, v+0.5)
				set(i, j, 0)
			case 2:
				set(i, j, v+0.25)
			default:
				m.AddSym(i, j, v)
			}
		}
		groups := make([][]int, ng)
		for e := 0; e < n; e++ {
			if g := int(at(e)+at(e+len(data)/2)) % (ng + 1); g < ng {
				groups[g] = append(groups[g], (e+int(order))%n)
			}
		}
		if symmetric := checkBoundaryExact(t, "fuzz", m, groups, 1+int(passes)%4); passes&0x80 != 0 && !symmetric {
			t.Fatal("the symmetrised matrix is not symmetric")
		}
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
			refineBoundary(m, groups, partitionRefinePasses, workers, true)
		}
		if allocs := testing.AllocsPerRun(10, run); allocs > 40 {
			t.Errorf("%d workers: %v allocations per call, want ≤ 40 whatever the pair, level and attempt counts", workers, allocs)
		}
	}
}

// TestRefineGroupsBoundaryBytes pins the bytes of one call on place-scale's
// random half (seed 1, from the greedy seeding, two workers). Ranked group
// by group it holds no cross-group nonzero beyond one group's; the buffer
// of all of them (142 336 records, 2.28 MB) made 2.68 MB per call.
func TestRefineGroupsBoundaryBytes(t *testing.T) {
	m := comm.RandomSparse(10000, 8, 100, 1)
	start := greedyGroups(m, 10, 1000)
	groups := cloneGroups(start)
	symmetric := m.IsSymmetric() // the greedy seeding's answer, not the call's work
	run := func() {
		for gi := range start {
			copy(groups[gi], start[gi])
		}
		refineBoundary(m, groups, partitionRefinePasses, 2, symmetric)
	}
	run()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 800_000 {
		t.Errorf("%d bytes per call, want ≤ 0.8 MB", got)
	}
}
