package treematch

import (
	"math"
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
