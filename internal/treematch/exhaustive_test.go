package treematch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/comm"
)

// The TreeMatch family of algorithms (Jeannot, Mercier & Tessier, TPDS
// 2014) includes an exhaustive grouping for small instances: when the
// number of ways to partition p entities into groups of size a is small,
// the optimal partition can be found by branch-and-bound instead of the
// greedy heuristic. This is that variant, kept as the brute-force oracle the
// greedy grouping is measured against; no placement path calls it.

// ExhaustiveLimit is the largest matrix order for which GroupProcessesOpt
// considers exhaustive search affordable: the search walks the canonical
// partition tree (first unassigned entity anchors each new group), which
// for p = 12, a = 4 is 5775·280·1 ≈ 1.6M leaves — milliseconds.
const ExhaustiveLimit = 12

// GroupProcessesOpt returns a partition of the p entities of m into p/a
// groups of size a that maximizes the intra-group communication volume
// exactly, via branch-and-bound over canonical partitions. It panics under
// the same conditions as groupProcesses. Exponential in p: callers must
// keep p at or below ExhaustiveLimit (tests enforce the constant).
func GroupProcessesOpt(m *comm.Matrix, a int) [][]int {
	p := m.Order()
	if a <= 0 || p%a != 0 {
		panic("treematch: GroupProcessesOpt requires a > 0 dividing the matrix order")
	}
	if a == 1 || a == p {
		return groupProcesses(m, a, 0, new(affinityFill)) // single valid shape
	}
	// Pair affinity (both directions), precomputed.
	aff := make([][]float64, p)
	for i := range aff {
		aff[i] = make([]float64, p)
		for j := range aff[i] {
			aff[i][j] = m.At(i, j) + m.At(j, i)
		}
	}
	// Start from the greedy solution as the incumbent bound.
	best := groupProcesses(m, a, 2, new(affinityFill))
	bestScore := intraVolume(m, best)

	used := make([]bool, p)
	var groups [][]int
	var cur []int
	var curScore float64

	// maxPair is the largest pair affinity, used for an optimistic bound:
	// each not-yet-grouped entity can contribute at most (a-1) maxPair.
	var maxPair float64
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if aff[i][j] > maxPair {
				maxPair = aff[i][j]
			}
		}
	}

	var rec func(remaining int)
	rec = func(remaining int) {
		// Close a completed group before anything else, so the final group
		// is recorded when the last entity has just been placed.
		if len(cur) == a {
			groups = append(groups, append([]int(nil), cur...))
			save := cur
			cur = nil
			rec(remaining)
			cur = save
			groups = groups[:len(groups)-1]
			return
		}
		if remaining == 0 {
			if curScore > bestScore {
				bestScore = curScore
				best = make([][]int, len(groups))
				for i, g := range groups {
					best[i] = append([]int(nil), g...)
				}
			}
			return
		}
		// Optimistic bound: each remaining entity can close at most (a-1)
		// pairs of the maximum affinity (pairs between two remaining
		// entities are counted twice, which keeps it an upper bound).
		if curScore+float64(remaining)*float64(a-1)*maxPair <= bestScore {
			return
		}
		if len(cur) == 0 {
			// Canonical form: each new group is anchored by the smallest
			// unused entity, which kills permutation symmetry.
			anchor := -1
			for i := 0; i < p; i++ {
				if !used[i] {
					anchor = i
					break
				}
			}
			used[anchor] = true
			cur = append(cur, anchor)
			rec(remaining - 1)
			cur = cur[:0]
			used[anchor] = false
			return
		}
		// Extend the open group with any unused entity larger than the
		// last member (members ascend: kills intra-group permutations).
		last := cur[len(cur)-1]
		for i := last + 1; i < p; i++ {
			if used[i] {
				continue
			}
			gain := 0.0
			for _, u := range cur {
				gain += aff[u][i]
			}
			used[i] = true
			cur = append(cur, i)
			curScore += gain
			rec(remaining - 1)
			curScore -= gain
			cur = cur[:len(cur)-1]
			used[i] = false
		}
	}
	rec(p)
	return best
}

// GroupQuality returns the intra-group volume of a partition divided by
// the total (off-diagonal) volume: 1 means every byte stays inside a
// group. Used to compare heuristic and optimal partitions.
func GroupQuality(m *comm.Matrix, groups [][]int) float64 {
	total := m.TotalVolume()
	if total == 0 {
		return 1
	}
	q := intraVolume(m, groups) / total
	return math.Min(q, 1)
}

func TestGroupProcessesOptFindsPlantedPairs(t *testing.T) {
	// Planted optimum: heavy pairs (0,3), (1,4), (2,5) under light noise.
	m := comm.New(6)
	m.AddSym(0, 3, 100)
	m.AddSym(1, 4, 100)
	m.AddSym(2, 5, 100)
	m.AddSym(0, 1, 1)
	m.AddSym(3, 5, 2)
	groups := GroupProcessesOpt(m, 2)
	want := map[[2]int]bool{{0, 3}: true, {1, 4}: true, {2, 5}: true}
	for _, g := range groups {
		if len(g) != 2 || !want[[2]int{g[0], g[1]}] {
			t.Fatalf("optimal groups = %v, want the planted pairs", groups)
		}
	}
	if q := GroupQuality(m, groups); q < 0.98 {
		t.Errorf("quality = %v, want ~1 (noise only)", q)
	}
}

// TestGreedyNearOptimal measures the heuristic against the exhaustive
// optimum on random instances: the greedy+refine partition must retain at
// least 85% of the optimal intra-group volume (it usually retains ~100%).
func TestGreedyNearOptimal(t *testing.T) {
	f := func(seed int64, aSel uint8) bool {
		a := []int{2, 3, 4}[int(aSel)%3]
		p := a * (ExhaustiveLimit / a) // <= ExhaustiveLimit
		m := comm.Random(p, 0.7, 100, seed)
		opt := intraVolume(m, GroupProcessesOpt(m, a))
		heu := intraVolume(m, groupProcesses(m, a, 2, new(affinityFill)))
		if opt == 0 {
			return heu == 0
		}
		if heu > opt+1e-9 {
			return false // "optimal" beaten: the search is broken
		}
		return heu >= 0.85*opt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Error(err)
	}
}

func TestGroupProcessesOptDegenerateShapes(t *testing.T) {
	m := comm.Random(6, 0.5, 10, 1)
	// a == 1: singletons.
	groups := GroupProcessesOpt(m, 1)
	if len(groups) != 6 {
		t.Errorf("a=1 groups = %v", groups)
	}
	// a == p: one group.
	groups = GroupProcessesOpt(m, 6)
	if len(groups) != 1 || len(groups[0]) != 6 {
		t.Errorf("a=p groups = %v", groups)
	}
}

func TestGroupProcessesOptPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("no panic for non-dividing arity")
		}
	}()
	GroupProcessesOpt(comm.New(5), 2)
}

func TestGroupQualityBounds(t *testing.T) {
	m := allToAll(4, 10)
	all := [][]int{{0, 1, 2, 3}}
	if q := GroupQuality(m, all); q != 1 {
		t.Errorf("single-group quality = %v, want 1", q)
	}
	singletons := [][]int{{0}, {1}, {2}, {3}}
	if q := GroupQuality(m, singletons); q != 0 {
		t.Errorf("singleton quality = %v, want 0", q)
	}
	if q := GroupQuality(comm.New(3), [][]int{{0, 1, 2}}); q != 1 {
		t.Errorf("zero-volume quality = %v, want 1", q)
	}
}

func BenchmarkGroupProcessesGreedy(b *testing.B) {
	m := comm.Random(ExhaustiveLimit, 0.7, 100, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groupProcesses(m, 3, 2, new(affinityFill))
	}
}

func BenchmarkGroupProcessesOpt(b *testing.B) {
	m := comm.Random(ExhaustiveLimit, 0.7, 100, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GroupProcessesOpt(m, 3)
	}
}
