package omp

import (
	"sync"
	"testing"

	"repro/internal/numasim"
	"repro/internal/topology"
)

func testMachine(t *testing.T, spec string) *numasim.Machine {
	t.Helper()
	top, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numasim.New(top, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Errorf("schedule names wrong")
	}
	if Schedule(9).String() == "" {
		t.Errorf("unknown schedule empty")
	}
}

func TestNewTeamErrors(t *testing.T) {
	if _, err := NewTeam(nil, 0, 1); err == nil {
		t.Errorf("zero-size team accepted")
	}
	if _, err := NewTeam(testMachine(t, "core:2"), -1, 1); err == nil {
		t.Errorf("negative-size team accepted")
	}
}

func TestChunkList(t *testing.T) {
	// Static, no chunk: one range per thread, covering exactly.
	cs := chunkList(0, 10, 0, 3, Static)
	if len(cs) != 3 || cs[0] != [2]int{0, 3} || cs[2] != [2]int{6, 10} {
		t.Errorf("static chunks = %v", cs)
	}
	// Dynamic chunk 4 over [0,10): 3 chunks.
	cs = chunkList(0, 10, 4, 3, Dynamic)
	if len(cs) != 3 || cs[2] != [2]int{8, 10} {
		t.Errorf("dynamic chunks = %v", cs)
	}
	// Guided shrinks but never below chunk.
	cs = chunkList(0, 100, 2, 4, Guided)
	if len(cs) < 2 {
		t.Fatalf("guided chunks = %v", cs)
	}
	for i := 1; i < len(cs); i++ {
		if cs[i][0] != cs[i-1][1] {
			t.Errorf("guided chunks not contiguous: %v", cs)
		}
	}
	last := cs[len(cs)-1]
	if last[1] != 100 {
		t.Errorf("guided chunks do not cover: %v", cs)
	}
}

func TestRealParallelForCovers(t *testing.T) {
	team, err := NewTeam(nil, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		hit := make([]int, 100)
		var mu sync.Mutex
		team.ParallelFor(0, 100, 7, sched, func(lo, hi, tid int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				hit[i]++
			}
			mu.Unlock()
		})
		for i, h := range hit {
			if h != 1 {
				t.Fatalf("%v: index %d executed %d times", sched, i, h)
			}
		}
	}
	// Empty range is a no-op.
	team.ParallelFor(5, 5, 0, Static, func(lo, hi, tid int) { t.Errorf("body called on empty range") })
}

func TestVirtualParallelForDeterministic(t *testing.T) {
	run := func() float64 {
		m := testMachine(t, "pack:2 core:2 pu:1")
		team, err := NewTeam(m, 4, 9)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < 5; r++ {
			team.ParallelFor(0, 64, 4, Dynamic, func(lo, hi, tid int) {
				team.Proc(tid).Compute(float64((hi - lo) * 1000))
			})
		}
		return team.MakespanCycles()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("virtual loop not deterministic: %v vs %v", a, b)
	}
}

func TestVirtualBarrierSynchronizes(t *testing.T) {
	m := testMachine(t, "core:4")
	team, err := NewTeam(m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	team.MigrationProbability = 0 // no migration penalty in the clocks
	// One thread gets a much bigger chunk (static by index ranges of equal
	// size, but the body cost varies by tid).
	team.ParallelFor(0, 4, 0, Static, func(lo, hi, tid int) {
		team.Proc(tid).ComputeCycles(float64(1000 * (tid + 1)))
	})
	// After the barrier every clock is the max plus the barrier cost.
	want := team.MakespanCycles()
	for tid := 0; tid < 4; tid++ {
		if c := team.Proc(tid).Clock(); c != want {
			t.Errorf("thread %d clock %v, want %v", tid, c, want)
		}
	}
	if want < 4000 {
		t.Errorf("makespan %v below the slowest thread's work", want)
	}
}

func TestEarliestClockDispatchBalances(t *testing.T) {
	m := testMachine(t, "core:4")
	team, err := NewTeam(m, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	team.MigrationProbability = 0 // no migration penalty in the clocks
	// 16 equal chunks on 4 threads: every thread should get 4.
	counts := make([]int, 4)
	team.ParallelFor(0, 16, 1, Dynamic, func(lo, hi, tid int) {
		counts[tid]++
		team.Proc(tid).ComputeCycles(1000)
	})
	for tid, c := range counts {
		if c != 4 {
			t.Errorf("thread %d ran %d chunks, want 4 (dispatch unbalanced: %v)", tid, c, counts)
		}
	}
}

func TestUnboundTeamMigrates(t *testing.T) {
	m := testMachine(t, "pack:4 core:4 pu:1")
	team, err := NewTeam(m, 8, 11)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 40; r++ {
		team.ParallelFor(0, 8, 0, Static, func(lo, hi, tid int) {
			team.Proc(tid).ComputeCycles(100)
		})
	}
	migrations := 0
	for tid := 0; tid < 8; tid++ {
		migrations += team.Proc(tid).Stats().Migrations
	}
	if migrations == 0 {
		t.Errorf("unbound team never migrated over 40 regions")
	}
}
