package treematch

import (
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
