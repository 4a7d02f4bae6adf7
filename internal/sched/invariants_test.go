package sched

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/numasim"
	"repro/internal/topology"
)

// Property-based scheduler invariants over seeded random streams, the
// online-scheduling extension of the placement property suite: admitted jobs
// stay inside their required domain, no core slot is double-booked across
// concurrently resident jobs, a departure returns the free-capacity index
// exactly to its prior state, and identical seeds give bit-identical
// schedules.

// invariantCases spans the policies and both fit rules over two fabric
// shapes and several stream seeds.
func invariantCases() []struct {
	name string
	spec string
	opts Options
	seed int64
} {
	var out []struct {
		name string
		spec string
		opts Options
		seed int64
	}
	shapes := []struct{ name, spec string }{
		{"rack2x4", "rack:2 node:4 pack:2 core:4 pu:1"},
		{"pod2", "pod:2 rack:2 node:2 pack:2 core:4 pu:1"},
	}
	opts := []struct {
		name string
		o    Options
	}{
		{"aware-best", Options{Policy: TopoAware, Fit: BestFit}},
		{"aware-worst", Options{Policy: TopoAware, Fit: WorstFit}},
		{"aware-reject", Options{Policy: TopoAware, Queue: QueueReject}},
		{"blind", Options{Policy: TopoBlind}},
		{"first-fit", Options{Policy: FirstFit}},
		{"backfill", Options{Policy: TopoAware, Backfill: true}},
		{"preempt", Options{Policy: TopoAware, Preempt: true}},
		{"defrag", Options{Policy: TopoAware, Defrag: true}},
		{"defrag-gated", Options{Policy: TopoAware, Defrag: true, DefragThreshold: 0.3}},
		{"full-stack", Options{Policy: TopoAware, Backfill: true, Preempt: true, Defrag: true}},
		{"full-stack-reject", Options{Policy: TopoAware, Backfill: true, Preempt: true, Defrag: true, Queue: QueueReject}},
	}
	for _, sh := range shapes {
		for _, op := range opts {
			for _, seed := range []int64{1, 7, 42} {
				out = append(out, struct {
					name string
					spec string
					opts Options
					seed int64
				}{sh.name + "/" + op.name, sh.spec, op.o, seed})
			}
		}
	}
	return out
}

func invariantStream(t *testing.T, seed int64) []JobSpec {
	t.Helper()
	// The priority classes and the heavy work tail give the phase-2 cases
	// lawful preemption victims and real backfill windows to act on.
	jobs, err := GenerateStream(StreamConfig{Jobs: 30, Seed: seed, Churn: 5,
		ConstraintFraction: 0.4, PreferredTier: "node", RequiredTier: "rack",
		PriorityClasses: 3, LongFraction: 0.2})
	if err != nil {
		t.Fatalf("GenerateStream: %v", err)
	}
	return jobs
}

// TestSchedulerInvariants replays every case and checks containment,
// exclusivity and end-state restoration on the same run.
func TestSchedulerInvariants(t *testing.T) {
	for _, tc := range invariantCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			mach := schedMachine(t, tc.spec)
			topo := mach.Topology()
			s, err := New(mach, tc.opts)
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			before := s.Capacity().Fingerprint()
			rep, err := s.Run(invariantStream(t, tc.seed))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}

			// Departures restored the index exactly: after the full run every
			// job has released its slots, and the incremental aggregates agree
			// with a from-scratch recount.
			if after := s.Capacity().Fingerprint(); after != before {
				t.Fatalf("capacity index not restored:\n before %s\n after  %s", before, after)
			}
			if err := s.Capacity().Validate(); err != nil {
				t.Fatalf("capacity index inconsistent: %v", err)
			}

			rackOfNode := nodeTierIndex(topo, topology.Rack)
			type interval struct {
				start, finish float64
				cores         []int
			}
			var placed []interval
			for _, j := range rep.Jobs {
				if j.Rejected {
					continue
				}
				if len(j.Cores) != j.Tasks {
					t.Fatalf("job %s: %d cores for %d tasks", j.Name, len(j.Cores), j.Tasks)
				}
				// Containment: every core inside the job's reported domain;
				// for required-constrained jobs under the constraint-honoring
				// policies that domain is itself inside the required tier.
				if tc.opts.Policy != FirstFit {
					checkContainment(t, s, topo, rackOfNode, j)
				}
				// Exclusivity is a per-residency property: a preempted or
				// migrated job occupies different cores over disjoint
				// segments, so each segment is its own interval.
				if len(j.Segments) == 0 {
					t.Fatalf("job %s: admitted but has no residency segments", j.Name)
				}
				for _, seg := range j.Segments {
					placed = append(placed, interval{seg.StartCycles, seg.FinishCycles, seg.Cores})
				}
			}

			// Exclusivity: no core serves two jobs whose residency overlaps.
			for i := 0; i < len(placed); i++ {
				for k := i + 1; k < len(placed); k++ {
					a, b := placed[i], placed[k]
					if a.start >= b.finish || b.start >= a.finish {
						continue
					}
					if c := sharedCore(a.cores, b.cores); c >= 0 {
						t.Fatalf("core %d double-booked by overlapping jobs [%v,%v) and [%v,%v)",
							c, a.start, a.finish, b.start, b.finish)
					}
				}
			}
		})
	}
}

// nodeTierIndex maps every cluster node to its domain index at the tier (-1
// without that tier).
func nodeTierIndex(topo *topology.Topology, tier topology.Kind) []int {
	out := make([]int, topo.NumClusterNodes())
	for i := range out {
		out[i] = -1
	}
	for d, dom := range topo.FabricDomains(tier) {
		for _, n := range dom.Nodes {
			out[n] = d
		}
	}
	return out
}

// checkContainment verifies the job's cores all sit inside the domain it
// reports, and that a required=rack job never leaves one rack.
func checkContainment(t *testing.T, s *Scheduler, topo *topology.Topology, rackOfNode []int, j JobStat) {
	t.Helper()
	racks := map[int]bool{}
	for _, core := range j.Cores {
		racks[rackOfNode[s.cap.nodeOf[core]]] = true
	}
	switch j.Tier {
	case "node":
		if j.NodesSpanned != 1 {
			t.Fatalf("job %s: tier node but spans %d nodes", j.Name, j.NodesSpanned)
		}
	case "rack":
		if len(racks) != 1 {
			t.Fatalf("job %s: tier rack but touches racks %v", j.Name, racks)
		}
		if !racks[j.Domain] {
			t.Fatalf("job %s: reported rack %d but sits in %v", j.Name, j.Domain, racks)
		}
	}
}

func sharedCore(a, b []int) int {
	set := map[int]bool{}
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if set[c] {
			return c
		}
	}
	return -1
}

// TestSchedulerDeterminism: identical seeds give bit-identical schedules,
// including all float aggregates.
func TestSchedulerDeterminism(t *testing.T) {
	for _, tc := range invariantCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			jobs := invariantStream(t, tc.seed)
			run := func() *Report {
				rep := mustRun(t, schedMachine(t, tc.spec), tc.opts, jobs)
				return rep
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestCapacityBindReleaseRestores drives the index directly with random
// bind/release pairs: each release returns the fingerprint to the exact
// pre-bind state, and the incremental aggregates never drift from a full
// recount.
func TestCapacityBindReleaseRestores(t *testing.T) {
	topo, err := topology.FromSpec("pod:2 rack:2 node:2 pack:2 core:4 pu:1")
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	c, err := NewCapacity(topo)
	if err != nil {
		t.Fatalf("NewCapacity: %v", err)
	}
	rng := rand.New(rand.NewSource(11))
	type bound struct {
		cores []int
		prior string
	}
	var resident []bound
	for step := 0; step < 400; step++ {
		if rng.Intn(2) == 0 && c.FreeTotal() > 0 {
			// Bind a random subset of the free slots.
			var free []int
			for n := range c.free {
				free = append(free, c.free[n]...)
			}
			sort.Ints(free)
			rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
			k := 1 + rng.Intn(len(free))
			cores := append([]int(nil), free[:k]...)
			prior := c.Fingerprint()
			if err := c.Bind(cores); err != nil {
				t.Fatalf("step %d: bind %v: %v", step, cores, err)
			}
			resident = append(resident, bound{cores, prior})
		} else if len(resident) > 0 {
			// Release the most recent binding: state must return exactly.
			last := resident[len(resident)-1]
			resident = resident[:len(resident)-1]
			if err := c.Release(last.cores); err != nil {
				t.Fatalf("step %d: release %v: %v", step, last.cores, err)
			}
			if got := c.Fingerprint(); got != last.prior {
				t.Fatalf("step %d: release did not restore state:\n want %s\n got  %s", step, last.prior, got)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// schedMachineCfg builds a machine with an explicit simulation config, for
// the edge cases that need a non-default migration penalty.
func schedMachineCfg(t *testing.T, spec string, cfg numasim.Config) *numasim.Machine {
	t.Helper()
	plat, err := numasim.NewPlatform(spec, cfg)
	if err != nil {
		t.Fatalf("platform %q: %v", spec, err)
	}
	return plat.Machine()
}

// TestBackfillConservativeWindow pins the conservative-backfill contract on
// a hand-built stream: a candidate whose modeled service exceeds the blocked
// head's earliest-start window must NOT jump the queue (the window is never
// zero while the head is blocked — the next departure is strictly ahead —
// so too-small is the boundary case), while a short candidate backfills and
// the head's start time is bit-identical either way (the head is never
// delayed).
func TestBackfillConservativeWindow(t *testing.T) {
	const spec = "rack:1 node:1 pack:1 core:4 pu:1"
	long := JobSpec{Name: "long", ArriveCycles: 0, WorkCycles: 2e6, Tasks: 3, VolumeBytes: 64}
	head := JobSpec{Name: "head", ArriveCycles: 100, WorkCycles: 1e6, Tasks: 4, VolumeBytes: 64}
	big := JobSpec{Name: "big", ArriveCycles: 200, WorkCycles: 5e6, Tasks: 1, VolumeBytes: 64}
	tiny := JobSpec{Name: "tiny", ArriveCycles: 200, WorkCycles: 1e5, Tasks: 1, VolumeBytes: 64}
	opts := Options{Policy: TopoAware, Backfill: true}

	byName := func(rep *Report, name string) JobStat {
		t.Helper()
		for _, j := range rep.Jobs {
			if j.Name == name {
				return j
			}
		}
		t.Fatalf("job %s missing from report", name)
		return JobStat{}
	}

	// A 5e6-cycle candidate does not fit the ~2e6-cycle window: no backfill,
	// strict FIFO order preserved.
	noop := mustRun(t, schedMachine(t, spec), opts, []JobSpec{long, head, big})
	if noop.Backfills != 0 {
		t.Fatalf("oversized candidate backfilled %d times, want 0", noop.Backfills)
	}
	if hs, bs := byName(noop, "head"), byName(noop, "big"); bs.StartCycles < hs.FinishCycles {
		t.Fatalf("big started at %v before the head finished at %v", bs.StartCycles, hs.FinishCycles)
	}

	// A 1e5-cycle candidate fits: it backfills onto the idle core and the
	// head starts exactly when it would have without backfill.
	baseline := mustRun(t, schedMachine(t, spec), Options{Policy: TopoAware}, []JobSpec{long, head, tiny})
	filled := mustRun(t, schedMachine(t, spec), opts, []JobSpec{long, head, tiny})
	if filled.Backfills != 1 || !byName(filled, "tiny").Backfilled {
		t.Fatalf("short candidate not backfilled (backfills=%d)", filled.Backfills)
	}
	ts := byName(filled, "tiny")
	if ts.StartCycles != tiny.ArriveCycles {
		t.Errorf("backfilled job started at %v, want its arrival %v", ts.StartCycles, tiny.ArriveCycles)
	}
	if got, want := byName(filled, "head").StartCycles, byName(baseline, "head").StartCycles; got != want {
		t.Errorf("backfill delayed the head: start %v, want %v", got, want)
	}
	if byName(filled, "head").StartCycles < byName(filled, "long").FinishCycles {
		t.Errorf("head started before the long job released the machine")
	}
}

// phase2Stream is the shared hand-built eviction scenario: two background
// jobs split across the racks (bgB pinned by its rack constraint under
// worst-fit), leaving two free slots per rack, then a four-task
// rack-required head that no single rack can serve without intervention.
func phase2Stream(headPriority int) []JobSpec {
	return []JobSpec{
		{Name: "bgA", ArriveCycles: 0, WorkCycles: 9e6, Tasks: 2, VolumeBytes: 1024},
		{Name: "bgB", ArriveCycles: 1, WorkCycles: 9e6, Tasks: 2, VolumeBytes: 1024, Required: "rack"},
		{Name: "head", ArriveCycles: 2, WorkCycles: 1e6, Tasks: 4, VolumeBytes: 1024,
			Priority: headPriority, Required: "rack"},
	}
}

// TestPreemptionRestoresCapacity: the high-priority head evicts the
// unconstrained background job mid-service, the victim's accounting stays
// exact across its two residency segments, and the capacity index ends the
// run bit-identical to its pre-run fingerprint.
func TestPreemptionRestoresCapacity(t *testing.T) {
	const spec = "rack:2 node:1 pack:1 core:4 pu:1"
	opts := Options{Policy: TopoAware, Fit: WorstFit, Preempt: true}
	mach := schedMachine(t, spec)
	s, err := New(mach, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := s.Capacity().Fingerprint()
	rep, err := s.Run(phase2Stream(2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if after := s.Capacity().Fingerprint(); after != before {
		t.Fatalf("capacity index not restored after preemption:\n before %s\n after  %s", before, after)
	}
	if err := s.Capacity().Validate(); err != nil {
		t.Fatalf("capacity index inconsistent: %v", err)
	}
	if rep.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want exactly 1\n%+v", rep.Preemptions, rep.Jobs)
	}
	if rep.RespawnCycles <= 0 {
		t.Errorf("respawn cycles %v, want > 0 (the eviction is charged)", rep.RespawnCycles)
	}
	var victim, head JobStat
	for _, j := range rep.Jobs {
		switch j.Name {
		case "bgA":
			victim = j
		case "head":
			head = j
		}
	}
	if victim.Preemptions != 1 || len(victim.Segments) != 2 {
		t.Fatalf("victim preemptions=%d segments=%d, want 1 and 2", victim.Preemptions, len(victim.Segments))
	}
	if victim.Segments[0].FinishCycles != head.StartCycles {
		t.Errorf("victim's first segment ends at %v, want the head's start %v",
			victim.Segments[0].FinishCycles, head.StartCycles)
	}
	if got := victim.ArriveCycles + victim.WaitCycles + victim.ServiceCycles; !within(got, victim.FinishCycles, 1e-6) {
		t.Errorf("victim accounting broken: arrive+wait+service = %v, finish = %v", got, victim.FinishCycles)
	}
	if head.StartCycles != 2 {
		t.Errorf("head start %v, want 2 (immediately via preemption)", head.StartCycles)
	}
	// Without preemption the head must sit out the background service.
	fifo := mustRun(t, schedMachine(t, spec), Options{Policy: TopoAware, Fit: WorstFit}, phase2Stream(2))
	for _, j := range fifo.Jobs {
		if j.Name == "head" && j.StartCycles <= head.StartCycles {
			t.Errorf("preemption did not help: head start %v with, %v without", head.StartCycles, j.StartCycles)
		}
	}
}

// TestDefragCostGate: on the same split-rack scenario, defragmentation
// migrates the background job when the bill is small, and is a priced no-op
// when the migration penalty dwarfs the head's wait saving — the decision
// must follow the machine model, not the fragmentation state.
func TestDefragCostGate(t *testing.T) {
	const spec = "rack:2 node:1 pack:1 core:4 pu:1"
	opts := Options{Policy: TopoAware, Fit: WorstFit, Defrag: true}
	jobs := phase2Stream(0) // defragmentation needs no priority classes

	cheap := mustRun(t, schedMachine(t, spec), opts, jobs)
	if cheap.DefragMigrations != 1 {
		t.Fatalf("defrag migrations = %d, want exactly 1\n%+v", cheap.DefragMigrations, cheap.Jobs)
	}
	if cheap.DefragCostCycles <= 0 {
		t.Errorf("defrag cost %v, want > 0 (the move is charged)", cheap.DefragCostCycles)
	}
	for _, j := range cheap.Jobs {
		switch j.Name {
		case "bgA":
			if j.DefragMigrations != 1 || len(j.Segments) != 2 {
				t.Errorf("migrated job defrags=%d segments=%d, want 1 and 2", j.DefragMigrations, len(j.Segments))
			}
		case "head":
			if j.StartCycles != 2 {
				t.Errorf("head start %v, want 2 (immediately via defrag)", j.StartCycles)
			}
		}
	}

	// A 1e12-cycle migration penalty makes every candidate move cost more
	// than the ~9e6-cycle wait it would save: the engine must decline.
	dear := mustRun(t, schedMachineCfg(t, spec, numasim.Config{MigrationPenaltyCycles: 1e12}), opts, jobs)
	if dear.DefragMigrations != 0 {
		t.Fatalf("defrag fired %d times despite a prohibitive bill", dear.DefragMigrations)
	}
	for _, j := range dear.Jobs {
		if j.Name == "head" && j.StartCycles <= 2 {
			t.Errorf("head start %v under prohibitive defrag cost, want the full queue wait", j.StartCycles)
		}
	}
}

// within reports |a-b| <= tol*max(|a|,|b|) — float accounting tolerance.
func within(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestCapacityRejectsBadSlots: double bind, foreign release, out-of-range,
// duplicates. Each rejected call leaves the index as it was, and a valid Bind
// of the cores it had already checked then succeeds — a check that kept any
// of them marked would refuse that Bind as a duplicate.
func TestCapacityRejectsBadSlots(t *testing.T) {
	topo, err := topology.FromSpec("cluster:2 pack:1 core:4 pu:1")
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	c, err := NewCapacity(topo)
	if err != nil {
		t.Fatalf("NewCapacity: %v", err)
	}
	want, err := NewCapacity(topo) // bound by the valid calls only
	if err != nil {
		t.Fatalf("NewCapacity: %v", err)
	}
	bind := func(cores []int) {
		t.Helper()
		if err := c.Bind(cores); err != nil {
			t.Fatalf("bind %v: %v", cores, err)
		}
		if err := want.Bind(cores); err != nil {
			t.Fatalf("reference bind %v: %v", cores, err)
		}
		if got, w := c.Fingerprint(), want.Fingerprint(); got != w {
			t.Fatalf("after bind %v:\n got  %s\n want %s", cores, got, w)
		}
	}
	bind([]int{0, 1})
	for _, tc := range []struct {
		name   string
		bad    func() error
		follow []int
	}{
		{"double bind", func() error { return c.Bind([]int{2, 1}) }, []int{2}},
		{"release of free slot", func() error { return c.Release([]int{3}) }, []int{3}},
		{"out-of-range bind", func() error { return c.Bind([]int{4, 5, 99}) }, []int{4, 5}},
		{"duplicate bind", func() error { return c.Bind([]int{6, 7, 6}) }, []int{6, 7}},
	} {
		before := c.Fingerprint()
		if err := tc.bad(); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		if after := c.Fingerprint(); after != before {
			t.Fatalf("%s changed the index:\n before %s\n after  %s", tc.name, before, after)
		}
		bind(tc.follow)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("index left inconsistent: %v", err)
	}
}

// TestCapacityBindReleaseAllocs pins the index's hot path at zero
// allocations: Bind and Release of a 16-core job on the sched-phase2
// platform. Every defrag probe binds and releases twice per candidate.
func TestCapacityBindReleaseAllocs(t *testing.T) {
	topo, err := topology.FromSpec("pod:2 rack:2 node:2 pack:2 core:4 pu:1")
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	c, err := NewCapacity(topo)
	if err != nil {
		t.Fatalf("NewCapacity: %v", err)
	}
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = i
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := c.Bind(cores); err != nil {
			t.Fatal(err)
		}
		if err := c.Release(cores); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Bind+Release of 16 cores: %v allocations, want 0", allocs)
	}
}
