package omp

import "testing"

// TestGuidedVirtualDeterministicAndCovering: guided scheduling under
// virtual time is deterministic and covers the space exactly.
func TestGuidedVirtualDeterministicAndCovering(t *testing.T) {
	run := func() (float64, []int) {
		m := testMachine(t, "pack:2 core:2 pu:1")
		team, err := NewTeam(m, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		hits := make([]int, 200)
		for r := 0; r < 3; r++ {
			team.ParallelFor(0, 200, 2, Guided, func(lo, hi, tid int) {
				for i := lo; i < hi; i++ {
					hits[i]++
				}
				team.Proc(tid).ComputeCycles(float64(hi - lo))
			})
		}
		return team.MakespanCycles(), hits
	}
	c1, h1 := run()
	c2, h2 := run()
	if c1 != c2 {
		t.Errorf("guided virtual makespan differs: %v vs %v", c1, c2)
	}
	for i := range h1 {
		if h1[i] != 3 || h2[i] != 3 {
			t.Fatalf("index %d executed %d/%d times, want 3", i, h1[i], h2[i])
		}
	}
}

// TestParallelForSingleThread: a one-thread team degenerates gracefully.
func TestParallelForSingleThread(t *testing.T) {
	m := testMachine(t, "core:1")
	team, err := NewTeam(m, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	team.ParallelFor(0, 10, 3, Dynamic, func(lo, hi, tid int) {
		if tid != 0 {
			t.Errorf("tid = %d", tid)
		}
		sum += hi - lo
	})
	if sum != 10 {
		t.Errorf("covered %d of 10", sum)
	}
}
