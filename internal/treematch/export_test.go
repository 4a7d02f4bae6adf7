package treematch

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/comm"
)

// The internals the external tests of this package reach: they live in
// package treematch_test so that they may import the scheduler, which
// imports this package.

// FiedlerPaths is the state of one Fiedler differential (fiedlerPaths).
type FiedlerPaths = fiedlerPaths

func (ps *fiedlerPaths) Check(t *testing.T, name string, m *comm.Matrix) {
	t.Helper()
	ps.check(t, name, m)
}

func (ps *fiedlerPaths) CheckSplits(t *testing.T, name string, m *comm.Matrix) {
	t.Helper()
	ps.checkSplits(t, name, m)
}

// Counts returns how many checked calls took each path.
func (ps *fiedlerPaths) Counts() (fixed, alternating, full, noSplit int) {
	return ps.fixed, ps.alternating, ps.full, ps.noSplit
}

// greedyGroups is the greedy grouping of k groups of a entities in a fresh
// fill: the seeding the multilevel driver refines, for the differentials.
func greedyGroups(m *comm.Matrix, a, k int) [][]int { return new(affinityFill).uniform(m, a, k) }

// symmetricForm is the matrix comm.Read makes of a file holding a: each
// off-diagonal volume adds half of itself to both of its cells and a
// diagonal one is kept whole, in row-major order. The oracles' cases are
// drawn as a, one-directional and unequal pairs included, and read through
// it, so S(i,j) + S(j,i) is a(i,j) + a(j,i).
func symmetricForm(a [][]float64) *comm.Matrix {
	m := comm.New(len(a))
	for i, row := range a {
		for j, v := range row {
			if i == j {
				m.AddSym(i, i, v)
			} else {
				m.AddSym(i, j, v/2)
			}
		}
	}
	return m
}

// denseZero returns an n×n zero table for symmetricForm.
func denseZero(n int) [][]float64 {
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
	}
	return a
}

// equalsTranspose reports whether every cell of m has the bits of its
// mirror.
func equalsTranspose(m *comm.Matrix) bool {
	for i := 0; i < m.Order(); i++ {
		for j := 0; j < i; j++ {
			if math.Float64bits(m.At(i, j)) != math.Float64bits(m.At(j, i)) {
				return false
			}
		}
	}
	return true
}

// perCall returns the fewest bytes and allocations one call of fn cost in
// runs calls after a first, warming one, with the collector off. The
// fewest are what fn itself asks for: the runtime only adds, as when a
// goroutine finds no exited one, or no channel-wait record, to reuse on its
// processor (a collection empties the record caches).
func perCall(runs int, fn func()) (bytes, allocs uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	bytes, allocs = math.MaxUint64, math.MaxUint64
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		bytes, allocs = min(bytes, after.TotalAlloc-before.TotalAlloc), min(allocs, after.Mallocs-before.Mallocs)
	}
	return bytes, allocs
}
