package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunIndependentOfGOMAXPROCS requires the same Report, to the last bit,
// at GOMAXPROCS 1, 2 and 4 on both benchmark streams and one A15 and one A16
// cell: at width 1 the lookahead cannot overlap the loop, at 2 and 4 it can,
// and what it computes must not depend on which.
func TestRunIndependentOfGOMAXPROCS(t *testing.T) {
	want := map[string]bool{
		"sched-fifo/1": true, "sched-phase2/1": true, "sched-phase2/42": true,
		"a15/rack:2 node:4 pack:2 core:4 pu:1/topo-aware/1":  true,
		"a16/pod:2 rack:2 node:2 pack:2 core:4 pu:1/full/42": true,
	}
	var cases []streamCase
	for _, c := range append(streamCases(1), streamCases(42)...) {
		if want[c.name] {
			cases = append(cases, c)
		}
	}
	if len(cases) != len(want) {
		t.Fatalf("found %d of the %d cases", len(cases), len(want))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		jobs := c.jobs(t)
		var first *Report
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			rep := mustRun(t, schedMachine(t, c.spec), c.opts, jobs)
			if first == nil {
				first = rep
			} else if !reflect.DeepEqual(rep, first) {
				t.Fatalf("%s: the report at GOMAXPROCS %d differs from the one at 1", c.name, procs)
			}
		}
	}
}

// TestRunJoinsLookahead repeats Runs, every other one failing mid-stream
// while the lookahead is a full window ahead of the loop, and requires each
// to return with no goroutine left behind.
func TestRunJoinsLookahead(t *testing.T) {
	good := streamCases(1)[0] // the first A15 cell, topo-aware
	goodJobs := good.jobs(t)
	// Four-task jobs that never depart fill the four nodes one by one.
	var bad []JobSpec
	for i := 0; i < 4*lookaheadWindow; i++ {
		bad = append(bad, JobSpec{Name: fmt.Sprintf("j%02d", i), ArriveCycles: float64(10 * i), WorkCycles: 1e12,
			Tasks: 4, Pattern: fmt.Sprintf("stencil:2x2@%d", i)})
	}
	base := runtime.NumGoroutine()
	check := func(what string) {
		t.Helper()
		// A joined goroutine still counts between its last signal and its
		// exit, so give stragglers a moment; a leaked one never leaves.
		n := runtime.NumGoroutine()
		for wait := 0; n > base && wait < 1000; wait++ {
			time.Sleep(time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			t.Fatalf("%s left %d goroutines running, %d before", what, n, base)
		}
	}
	for rep := 0; rep < 5; rep++ {
		s, err := New(schedMachine(t, good.spec), good.opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := s.Run(goodJobs); err != nil {
			t.Fatalf("Run: %v", err)
		}
		check("a complete Run")

		s, err = New(schedMachine(t, "rack:1 node:4 pack:1 core:4 pu:1"), Options{Policy: TopoAware})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// The last node's last core leaves its free list but not the free
		// counts, so the fourth job is sent to node 3, its placement finds
		// three free cores for four tasks, and Run returns with 60 arrivals
		// to go.
		s.cap.free[3] = s.cap.free[3][:3]
		if _, err := s.Run(bad); err == nil || !strings.Contains(err.Error(), "4 tasks exceed 3 free slots") {
			t.Fatalf("Run returned %v, want the free-slot error", err)
		}
		if free := s.Capacity().FreeTotal(); free != 4 {
			t.Fatalf("%d cores free after the failed Run, want 4: it failed on another job than the fourth", free)
		}
		check("a Run that failed mid-stream")
	}
}

// TestReseededMatrixMatchesFresh builds scrambled stencils the way the
// lookahead does — one generator, re-seeded per job and left mid-stream
// between jobs — and requires each to equal JobSpec.Matrix's build from a
// fresh source, a repeated seed and a plain stencil included.
func TestReseededMatrixMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(0))
	for i, p := range []struct {
		tasks   int
		pattern string
	}{{16, "stencil:4x4@3"}, {15, "stencil:3x5@7"}, {16, "stencil:8x2@11"}, {6, "stencil:3x2"}, {16, "stencil:4x4@3"}} {
		spec := JobSpec{Name: fmt.Sprintf("j%d", i), Tasks: p.tasks, Pattern: p.pattern, VolumeBytes: 64}
		got, err := spec.matrix(rng)
		if err != nil {
			t.Fatal(err)
		}
		want, err := spec.Matrix()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the re-seeded generator's matrix differs from a fresh source's", p.pattern)
		}
		rng.Int63() // leave the source mid-stream for the next job
	}
}
