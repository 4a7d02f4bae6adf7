package treematch

import (
	"fmt"
	"math/rand"
	"reflect"
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

// checkBoundaryExact runs the kernel and the oracle from the same start and
// requires slice-equal groups (member order included).
func checkBoundaryExact(t *testing.T, name string, m *comm.Matrix, groups [][]int, passes int) {
	t.Helper()
	got, want := cloneGroups(groups), cloneGroups(groups)
	refineGroupsBoundary(m, got, passes)
	oracleRefineGroupsBoundary(m, want, passes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s, %d passes: kernel and oracle disagree\n got %v\nwant %v", name, passes, got, want)
	}
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
	refineGroupsBoundary(mixed, groups, 1)
	if want := [][]int{{3, 1, 2}, {0, 4, 5}}; !reflect.DeepEqual(groups, want) {
		t.Fatalf("mixed signs: got %v, want 0 and 3 swapped: %v", groups, want)
	}

	rng := rand.New(rand.NewSource(25))
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
	}

	// Candidate lists are capped: groups larger than maxBoundaryCands.
	big := randomBoundaryMatrix(rng, 400)
	checkBoundaryExact(t, "groups above the candidate cap", big, greedyGroups(big, 100, 4), 3)

	dense := comm.Random(60, 0.3, 1000, 5)
	dense.Set(3, 7, 11.5) // asymmetric
	checkBoundaryExact(t, "dense", dense, greedyGroups(dense, 6, 10), 3)
}

// TestRankCutsBitEqual pins the summation order of the cut ranking itself:
// swaps only notice a reordered sum when two cuts come within an ulp of each
// other, so each ranked cut is compared bit for bit with the per-pair map
// sum of the oracle, and the ranking with the oracle's full sort.
func TestRankCutsBitEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 30; c++ {
		n := 20 + rng.Intn(200)
		k := 2 + rng.Intn(n/2)
		m := randomBoundaryMatrix(rng, n)
		group := make([]int32, n)
		for e := range group {
			group[e] = int32(rng.Intn(k))
		}
		type gpair struct{ a, b int32 }
		cut := make(map[gpair]float64)
		for i := 0; i < n; i++ {
			m.ForEachNeighbor(i, func(j int, v float64) {
				gi, gj := group[i], group[j]
				if j == i || gi == gj {
					return
				}
				cut[gpair{min(gi, gj), max(gi, gj)}] += v
			})
		}
		want := make(byCut, 0, len(cut))
		for pr, v := range cut {
			want = append(want, cutRec{pr.a, pr.b, v})
		}
		sort.Sort(want)
		if len(want) > maxBoundaryPairs*k {
			want = want[:maxBoundaryPairs*k]
		}
		var cr cutRanker
		for pass := 0; pass < 2; pass++ { // the second pass reuses every buffer
			if got := cr.rank(m, group, k); !reflect.DeepEqual([]cutRec(got), []cutRec(want)) {
				t.Fatalf("case %d pass %d (n=%d k=%d): ranking differs\n got %v\nwant %v", c, pass, n, k, got, want)
			}
		}
	}
}

// FuzzRefineGroupsBoundaryExact decodes the input into a small sparse matrix
// (two bytes per entry: the entry's shape and a small signed volume, so cut
// and gain ties, explicit zeros and one-directional entries are all one
// mutation away) and a data-driven partition of uneven group sizes, and
// requires the kernel and the oracle to agree.
func FuzzRefineGroupsBoundaryExact(f *testing.F) {
	f.Add(uint8(9), uint8(3), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(12), uint8(2), uint8(2), []byte{0x13, 0xf2, 0x21, 0x07, 0x33, 0x81, 0x40, 0x02})
	f.Add(uint8(30), uint8(5), uint8(4), []byte{0xff, 0x01, 0x80, 0x7f, 0x10, 0x20, 0x30, 0x41, 0x52, 0x63})
	f.Fuzz(func(t *testing.T, order, k, passes uint8, data []byte) {
		n, ng := 4+int(order)%60, 2+int(k)%6
		if len(data) == 0 {
			return
		}
		m := comm.New(n)
		at := func(i int) byte { return data[i%len(data)] }
		for e := 0; 2*e+1 < len(data) && e < 6*n; e++ {
			shape, b := at(2*e), at(2*e+1)
			i, j := int(shape>>2)%n, int(b>>3)%n
			v := float64(int(b&7) - 3)
			switch shape & 3 {
			case 0:
				m.Set(i, j, v)
			case 1:
				m.Set(i, j, v+0.5)
				m.Set(i, j, 0)
			case 2:
				m.Set(i, j, v+0.25)
			default:
				m.AddSym(i, j, v)
			}
		}
		groups := make([][]int, ng)
		for e := 0; e < n; e++ {
			g := int(at(e)+at(e+len(data)/2)) % ng
			groups[g] = append(groups[g], (e+int(order))%n)
		}
		checkBoundaryExact(t, "fuzz", m, groups, 1+int(passes)%4)
	})
}

// TestRefineGroupsBoundaryAllocs pins that the pass allocates per call, not
// per pair or per swap attempt: a 2000-entity random graph in 200 groups
// ranks 800 pairs per pass and makes well over a thousand attempts.
func TestRefineGroupsBoundaryAllocs(t *testing.T) {
	m := comm.RandomSparse(2000, 8, 100, 3)
	start := greedyGroups(m, 10, 200)
	groups := cloneGroups(start)
	run := func() {
		for gi := range start {
			copy(groups[gi], start[gi])
		}
		refineGroupsBoundary(m, groups, partitionRefinePasses)
	}
	if allocs := testing.AllocsPerRun(10, run); allocs > 40 {
		t.Errorf("%v allocations per call, want ≤ 40 whatever the pair and attempt counts", allocs)
	}
}
