package sched

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/numasim"
	"repro/internal/topology"
)

func schedMachine(t *testing.T, spec string) *numasim.Machine {
	t.Helper()
	plat, err := numasim.NewPlatform(spec, numasim.Config{})
	if err != nil {
		t.Fatalf("platform %q: %v", spec, err)
	}
	return plat.Machine()
}

func mustRun(t *testing.T, mach *numasim.Machine, opts Options, jobs []JobSpec) *Report {
	t.Helper()
	s, err := New(mach, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := s.Run(jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

// TestSchedulerPlacesSequentialJobs: two small jobs that fit side by side
// both start immediately; a third that needs the whole machine waits for
// both to finish.
func TestSchedulerPlacesSequentialJobs(t *testing.T) {
	mach := schedMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	jobs := []JobSpec{
		{Name: "a", ArriveCycles: 0, WorkCycles: 1000, Tasks: 8, VolumeBytes: 64},
		{Name: "b", ArriveCycles: 0, WorkCycles: 1000, Tasks: 8, VolumeBytes: 64},
		{Name: "c", ArriveCycles: 10, WorkCycles: 1000, Tasks: 16, VolumeBytes: 64},
	}
	rep := mustRun(t, mach, Options{Policy: TopoAware}, jobs)
	if rep.Admitted != 3 || rep.Rejected != 0 {
		t.Fatalf("admitted %d rejected %d", rep.Admitted, rep.Rejected)
	}
	a, b, c := rep.Jobs[0], rep.Jobs[1], rep.Jobs[2]
	if a.WaitCycles != 0 || b.WaitCycles != 0 {
		t.Fatalf("small jobs waited: %v %v", a.WaitCycles, b.WaitCycles)
	}
	if c.WaitCycles <= 0 {
		t.Fatalf("full-machine job did not wait: %+v", c)
	}
	if c.StartCycles < a.FinishCycles || c.StartCycles < b.FinishCycles {
		t.Fatalf("c started at %v before both finished (%v, %v)", c.StartCycles, a.FinishCycles, b.FinishCycles)
	}
}

// TestSchedulerPreferredFallback is the required-tier-full fallback
// scenario: a job preferring one node cannot fit any single node (a resident
// job occupies part of every node of rack 0 is not needed — its size exceeds
// a node) and falls back to its required rack, landing entirely inside one
// rack across two nodes.
func TestSchedulerPreferredFallback(t *testing.T) {
	mach := schedMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	jobs := []JobSpec{
		// 6 tasks > 4-core node: preferred=node is full everywhere, the
		// scheduler widens to the required rack tier.
		{Name: "wide", ArriveCycles: 0, WorkCycles: 1000, Tasks: 6, VolumeBytes: 64,
			Preferred: "node", Required: "rack"},
	}
	rep := mustRun(t, mach, Options{Policy: TopoAware}, jobs)
	j := rep.Jobs[0]
	if j.Rejected {
		t.Fatalf("fallback job rejected: %s", j.RejectReason)
	}
	if j.Tier != "rack" {
		t.Fatalf("job placed at tier %q, want rack fallback", j.Tier)
	}
	if j.NodesSpanned != 2 {
		t.Fatalf("job spans %d nodes, want 2", j.NodesSpanned)
	}
}

// TestSchedulerRequiredInfeasible: a job whose required tier can never hold
// it is rejected up front, with wait policy irrelevant.
func TestSchedulerRequiredInfeasible(t *testing.T) {
	mach := schedMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	jobs := []JobSpec{
		{Name: "huge", ArriveCycles: 0, WorkCycles: 1000, Tasks: 12, VolumeBytes: 64, Required: "rack"},
	}
	rep := mustRun(t, mach, Options{Policy: TopoAware}, jobs)
	if !rep.Jobs[0].Rejected {
		t.Fatalf("infeasible job admitted: %+v", rep.Jobs[0])
	}
	if !strings.Contains(rep.Jobs[0].RejectReason, "capacity") {
		t.Fatalf("reject reason %q", rep.Jobs[0].RejectReason)
	}
}

// TestSchedulerQueueReject: under the reject policy a required-constrained
// job that finds its tier full is dropped instead of queued; under wait it
// runs after capacity frees.
func TestSchedulerQueueReject(t *testing.T) {
	mach := schedMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	jobs := []JobSpec{
		{Name: "resident", ArriveCycles: 0, WorkCycles: 10000, Tasks: 16, VolumeBytes: 64},
		{Name: "late", ArriveCycles: 10, WorkCycles: 1000, Tasks: 4, VolumeBytes: 64, Required: "node"},
	}
	rej := mustRun(t, mach, Options{Policy: TopoAware, Queue: QueueReject}, jobs)
	if !rej.Jobs[1].Rejected {
		t.Fatalf("reject policy kept the job: %+v", rej.Jobs[1])
	}
	wait := mustRun(t, mach, Options{Policy: TopoAware, Queue: QueueWait}, jobs)
	if wait.Jobs[1].Rejected {
		t.Fatalf("wait policy rejected the job: %+v", wait.Jobs[1])
	}
	if wait.Jobs[1].WaitCycles <= 0 {
		t.Fatalf("late job should have waited, wait=%v", wait.Jobs[1].WaitCycles)
	}
}

// TestSchedulerFitRules: best-fit packs into the fuller rack, worst-fit
// spreads to the emptier one.
func TestSchedulerFitRules(t *testing.T) {
	mach := schedMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	jobs := []JobSpec{
		// Occupy most of rack 0 (6 of 8 slots), then place a 2-task job.
		{Name: "resident", ArriveCycles: 0, WorkCycles: 100000, Tasks: 6, VolumeBytes: 64, Required: "rack"},
		{Name: "probe", ArriveCycles: 10, WorkCycles: 1000, Tasks: 2, VolumeBytes: 64, Preferred: "rack"},
	}
	best := mustRun(t, mach, Options{Policy: TopoAware, Fit: BestFit}, jobs)
	worst := mustRun(t, mach, Options{Policy: TopoAware, Fit: WorstFit}, jobs)
	if best.Jobs[1].Tier != "rack" || worst.Jobs[1].Tier != "rack" {
		t.Fatalf("probe tiers: best=%q worst=%q", best.Jobs[1].Tier, worst.Jobs[1].Tier)
	}
	if best.Jobs[1].Domain != 0 {
		t.Fatalf("best-fit probe went to rack %d, want the fuller rack 0", best.Jobs[1].Domain)
	}
	if worst.Jobs[1].Domain != 1 {
		t.Fatalf("worst-fit probe went to rack %d, want the emptier rack 1", worst.Jobs[1].Domain)
	}
}

// TestSchedulerFirstFitIgnoresConstraints: the baseline arm runs a job whose
// required tier the other arms would refuse (it does not understand
// constraints), scattering it across nodes.
func TestSchedulerFirstFitIgnoresConstraints(t *testing.T) {
	mach := schedMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	jobs := []JobSpec{
		{Name: "wide", ArriveCycles: 0, WorkCycles: 1000, Tasks: 12, VolumeBytes: 64, Required: "rack"},
	}
	rep := mustRun(t, mach, Options{Policy: FirstFit}, jobs)
	if rep.Jobs[0].Rejected {
		t.Fatalf("first-fit rejected: %s", rep.Jobs[0].RejectReason)
	}
	if rep.Jobs[0].NodesSpanned < 3 {
		t.Fatalf("first-fit spans %d nodes, expected scatter", rep.Jobs[0].NodesSpanned)
	}
}

// TestSchedulerWorkloadRoundTrip: generate, render, reparse, rerun — the
// schedule is identical.
func TestSchedulerWorkloadRoundTrip(t *testing.T) {
	jobs, err := GenerateStream(StreamConfig{Jobs: 12, Seed: 3, Churn: 4,
		ConstraintFraction: 0.5, PreferredTier: "node", RequiredTier: "rack"})
	if err != nil {
		t.Fatalf("GenerateStream: %v", err)
	}
	var lines []string
	for _, j := range jobs {
		lines = append(lines, j.Render())
	}
	parsed, err := ParseWorkload(strings.NewReader(strings.Join(lines, "\n")))
	if err != nil {
		t.Fatalf("ParseWorkload: %v", err)
	}
	if len(parsed) != len(jobs) {
		t.Fatalf("parsed %d jobs, want %d", len(parsed), len(jobs))
	}
	for i := range jobs {
		if parsed[i] != jobs[i] {
			t.Fatalf("job %d round-trip mismatch:\n  %+v\n  %+v", i, jobs[i], parsed[i])
		}
	}
}

// TestFinishPlacementRejectsUnknownPU: a layout naming a PU outside the
// machine is an error, on both sides of the range, never an index panic.
func TestFinishPlacementRejectsUnknownPU(t *testing.T) {
	mach := schedMachine(t, "rack:1 node:2 pack:1 core:2 pu:1")
	s, err := New(mach, Options{Policy: TopoAware})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := JobSpec{Name: "j", Tasks: 2, Pattern: "ring"}.Matrix()
	if err != nil {
		t.Fatal(err)
	}
	for _, pu := range []int{-1, mach.Topology().NumPUs()} {
		if _, _, err := s.finishPlacement(m, []int{0, pu}, topology.Machine, 0); err == nil || !strings.Contains(err.Error(), "unknown PU") {
			t.Errorf("PU %d: %v, want the unknown-PU error", pu, err)
		}
	}
	if _, _, err := s.finishPlacement(m, []int{0, mach.Topology().NumPUs() - 1}, topology.Machine, 0); err != nil {
		t.Errorf("the last PU: %v", err)
	}
}

// TestTierLadderAllocs pins the tier ladder every tryPlace resolves to no
// allocation: the tiers are the topology's, built once, and the ladder is
// a capped window of them, so an append cannot write into the shared list.
func TestTierLadderAllocs(t *testing.T) {
	s, err := New(schedMachine(t, "pod:2 rack:2 node:2 pack:1 core:2 pu:1"), Options{Policy: TopoAware})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{Name: "j", Tasks: 2, Preferred: "node", Required: "rack"}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.tierLadder(spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocations per tierLadder, want 0", allocs)
	}
	ladder, err := s.tierLadder(spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := []topology.Kind{topology.Cluster, topology.Rack}; !slices.Equal(ladder, want) {
		t.Fatalf("ladder %v, want %v", ladder, want)
	}
	_ = append(ladder, topology.Core)
	if all := s.topo.DomainTiers(); !slices.Equal(all, []topology.Kind{topology.Cluster, topology.Rack, topology.Pod, topology.Machine}) {
		t.Errorf("an append to the ladder changed the topology's tiers to %v", all)
	}
}
