package treematch_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/sched"
	"repro/internal/treematch"
)

// schedStreamMatrices builds the job matrices of the two scheduler benchmark
// streams at a seed: sched-fifo's, and sched-phase2's, whose seed renumbers
// every stencil.
func schedStreamMatrices(t *testing.T, seed int64) map[string]*comm.Matrix {
	fifo := sched.StreamConfig{Jobs: 800, Seed: seed, Churn: 4, ConstraintFraction: 0.3,
		PreferredTier: "node", RequiredTier: "rack"}
	phase2 := sched.StreamConfig{Jobs: 80, Seed: 1, Sizes: []int{2, 3, 4, 6, 8, 12, 16}, Churn: 12,
		ConstraintFraction: 0.35, LongFraction: 0.2, LongFactor: 8, VolumeBytes: 4096,
		PriorityClasses: 3, PreferredTier: "node", RequiredTier: "rack"}
	out := map[string]*comm.Matrix{}
	for _, s := range []struct {
		name     string
		cfg      sched.StreamConfig
		renumber int64
	}{{"sched-fifo", fifo, 0}, {"sched-phase2", phase2, seed - 1}} {
		jobs, err := sched.GenerateStream(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if shape, n, ok := strings.Cut(j.Pattern, "@"); ok && s.renumber != 0 {
				v, _ := strconv.ParseInt(n, 10, 64)
				j.Pattern = fmt.Sprintf("%s@%d", shape, v+s.renumber)
			}
			m, err := j.Matrix()
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d/%s %s", s.name, seed, j.Name, j.Pattern)] = m
		}
	}
	return out
}

// TestFiedlerVectorMatchesOracle holds fiedlerVector, exact-repeat exit
// included, to the loop that always runs every sweep, bit for bit: on what
// the spectral candidates see on both scheduler benchmark streams at seeds 1
// and 42 (each job's matrix and every submatrix one split of its spectral
// order induces), on every stencil from 2×1 to 8×8, on random sparse
// matrices of either sign, and on matrices too small or too empty to split.
// All three paths must occur: a fixed point, an alternation, and every sweep.
func TestFiedlerVectorMatchesOracle(t *testing.T) {
	var ps treematch.FiedlerPaths
	for w := 1; w <= 8; w++ {
		for h := 1; h <= w; h++ {
			ps.Check(t, "stencil", comm.Stencil2DSparse(w, h, 64, 8))
			ps.Check(t, "stencil without corners", comm.Stencil2DSparse(h, w, 4096, 0))
		}
	}
	for _, n := range []int{6, 12, 16, 24} {
		for seed := int64(1); seed <= 4; seed++ {
			m := comm.RandomSparse(n, 3, 100, seed)
			ps.Check(t, "random sparse", m)
			// Every other pair a third as heavy: non-integer weights.
			mixed, third := comm.New(n), false
			for i := 0; i < n; i++ {
				m.ForEachNeighbor(i, func(j int, v float64) {
					if j > i {
						if third = !third; third {
							v /= 3
						}
						mixed.AddSym(i, j, v)
					}
				})
			}
			ps.Check(t, "random sparse reweighted", mixed)
		}
	}
	for _, m := range []*comm.Matrix{comm.New(0), comm.New(1), comm.Ring(2, 10), comm.New(2), comm.New(7), comm.New(5)} {
		ps.Check(t, "tiny or edgeless", m)
	}
	for _, seed := range []int64{1, 42} {
		for name, m := range schedStreamMatrices(t, seed) {
			ps.CheckSplits(t, name, m)
		}
	}
	fixed, alternating, full, noSplit := ps.Counts()
	t.Logf("%d fixed points, %d alternations, %d full runs, %d without a split", fixed, alternating, full, noSplit)
	if fixed == 0 || alternating == 0 || full == 0 {
		t.Errorf("the inputs no longer reach every path: %d fixed points, %d alternations, %d full runs",
			fixed, alternating, full)
	}
}
