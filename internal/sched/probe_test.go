package sched

import "testing"

// TestSchedulerProbeCounts pins the probe work of both benchmark streams at
// seeds 1 and 42 without a host clock: tryPlace calls and engine placements
// (misses of placeAware's layout memo) per Run. Any change to a count fails
// it; a change that moves a count on purpose re-pins it and says so.
func TestSchedulerProbeCounts(t *testing.T) {
	want := map[string][2]int{
		"sched-fifo/1":    {2383, 800},
		"sched-fifo/42":   {2381, 800},
		"sched-phase2/1":  {488, 124},
		"sched-phase2/42": {499, 128},
	}
	found := 0
	for _, c := range append(streamCases(1), streamCases(42)...) {
		w, ok := want[c.name]
		if !ok {
			continue
		}
		found++
		s, err := New(schedMachine(t, c.spec), c.opts)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		// A second Run on the same Scheduler must read the same counts.
		for run := 0; run < 2; run++ {
			if _, err := s.Run(c.jobs(t)); err != nil {
				t.Fatalf("%s: Run: %v", c.name, err)
			}
			if got := [2]int{s.tryPlaces, s.placements}; got != w {
				t.Errorf("%s run %d: tryPlace calls, engine placements = %v, want %v", c.name, run, got, w)
			}
		}
	}
	if found != len(want) {
		t.Fatalf("found %d of the %d cases", found, len(want))
	}
}

// gateBoundaryCases are the two sides of intervene's free-total gate, as
// FuzzSchedulerRun inputs: on "rack:2 node:2 pack:1 core:4 pu:1" under the
// topo-aware worst-fit policy with backfill, preemption and defrag, four
// long ring jobs arrive at cycle 0 — two tasks on node 0, two or three on
// node 1, four on each of nodes 2 and 3 — and a four-task node-required
// head arrives 1e4 cycles later, blocked.
var gateBoundaryCases = []struct {
	name string
	// free is the free total the head meets; it needs four cores.
	free int
	data []byte
}{
	{"free-below-head", 3, []byte{0x09, 0x75,
		0, 255, 1, 0, 0, 0, 255, 2, 0, 0, 0, 255, 3, 0, 0, 0, 255, 3, 0, 0, 1, 255, 3, 0, 1}},
	{"free-equals-head", 4, []byte{0x09, 0x75,
		0, 255, 1, 0, 0, 0, 255, 1, 0, 0, 0, 255, 3, 0, 0, 0, 255, 3, 0, 0, 1, 255, 3, 0, 1}},
}

// TestInterventionGateBoundary drives the blocked head of each boundary case
// into intervene by hand, then replays the whole stream against the
// reference. One core short, the gate fires and no probe runs; with exactly
// the head's task count free, the candidates are probed and a defrag move
// commits.
func TestInterventionGateBoundary(t *testing.T) {
	for _, c := range gateBoundaryCases {
		t.Run(c.name, func(t *testing.T) {
			spec, opts, jobs, _ := decodeFuzzRun(c.data)
			s, err := New(schedMachine(t, spec), opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			rep := &Report{Jobs: make([]JobStat, len(jobs))}
			states := make([]*jobState, len(jobs))
			for i, js := range jobs {
				rep.Jobs[i] = JobStat{Name: js.Name, Tasks: js.Tasks, ArriveCycles: js.ArriveCycles}
				states[i] = &jobState{spec: js, seq: i, stat: &rep.Jobs[i], waitSince: js.ArriveCycles, ready: make(chan struct{})}
				states[i].m, states[i].err = js.Matrix()
				close(states[i].ready)
			}
			r := &runLoop{s: s, rep: rep, queue: states[:4]}
			if err := r.drain(); err != nil || len(r.queue) != 0 {
				t.Fatalf("background jobs: drain error %v, %d left queued", err, len(r.queue))
			}
			head := states[4]
			r.advance(head.spec.ArriveCycles)
			r.queue = []*jobState{head}
			if placed, _, err := s.tryPlace(head); err != nil || placed != nil {
				t.Fatalf("head not blocked: placed %v, error %v", placed, err)
			}
			if got := s.cap.FreeTotal(); got != c.free {
				t.Fatalf("free total %d, want %d", got, c.free)
			}
			tries, placements := s.tryPlaces, s.placements
			opened, err := r.intervene(head)
			if err != nil {
				t.Fatal(err)
			}
			probed := s.tryPlaces != tries || s.placements != placements
			gated := c.free < head.spec.Tasks
			if opened == gated || probed == gated {
				t.Fatalf("free %d of %d: opened %v, probed %v", c.free, head.spec.Tasks, opened, probed)
			}
			if opened && rep.DefragMigrations != 1 {
				t.Fatalf("the head's domain opened with %d defrag moves, want 1", rep.DefragMigrations)
			}

			diffAgainstReference(t, spec, opts, jobs)
			if moves := mustRun(t, schedMachine(t, spec), opts, jobs).DefragMigrations; (moves > 0) == gated {
				t.Fatalf("Run made %d defrag moves", moves)
			}
		})
	}
}
