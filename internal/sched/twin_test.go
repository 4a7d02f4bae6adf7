package sched

import (
	"fmt"
	"testing"
)

// The analytical twin: streams small enough to schedule by hand, run through
// the full scheduler (capacity index, placement engine, phase-2 policies),
// with EXACT equality required between the closed form and Report. Every job
// carries vol=0, so its layout prices no communication (CommCycles is
// checked to be 0) and a fresh job's service equals its work: every start,
// finish and wait follows from arrivals, works and the capacity alone. All
// cycle counts are integers well inside float64's exact range, so each sum
// is exact whatever its order.

// requireStat fails unless job i of the report started, finished and waited
// as the closed form says, with no communication priced.
func requireStat(t *testing.T, rep *Report, i int, start, finish, wait float64) {
	t.Helper()
	st := rep.Jobs[i]
	if st.Rejected || st.StartCycles != start || st.FinishCycles != finish || st.WaitCycles != wait || st.CommCycles != 0 {
		t.Errorf("%s: start %v finish %v wait %v comm %v, want start %v finish %v wait %v comm 0",
			st.Name, st.StartCycles, st.FinishCycles, st.WaitCycles, st.CommCycles, start, finish, wait)
	}
}

// TestTwinLadder runs a deterministic ladder on a uniform platform of two
// 4-core nodes: job i (4 tasks, one node's worth) arrives at i·A and works
// W = 3A. Each node is one server of a FIFO queue, so
//
//	start_i = i·A                   for i < 2
//	start_i = finish_{i−2}          for i ≥ 2   (the node job i−2 frees)
//
// which solves to start_i = (i mod 2)·A + 3A·⌊i/2⌋ and wait_i = start_i − i·A
// = A·⌊i/2⌋: every second arrival adds one A of queueing. The makespan is
// start_{N−1} + W, the busy slot-cycles N·4·W, and the fragmentation 0 — the
// free cores always sit in whole nodes, and both nodes are never free at
// once while the clock runs.
func TestTwinLadder(t *testing.T) {
	const (
		n = 9
		a = 1000.0
		w = 3 * a
	)
	jobs := make([]JobSpec, n)
	for i := range jobs {
		jobs[i] = JobSpec{Name: fmt.Sprintf("j%d", i), ArriveCycles: float64(i) * a, WorkCycles: w, Tasks: 4, Pattern: "ring"}
	}
	mach := schedMachine(t, "rack:1 node:2 pack:1 core:4 pu:1")
	rep := mustRun(t, mach, Options{Policy: TopoAware}, jobs)
	var waits, aggregate float64
	for i := 0; i < n; i++ {
		start := float64(i%2)*a + 3*a*float64(i/2)
		wait := a * float64(i/2)
		requireStat(t, rep, i, start, start+w, wait)
		waits += wait
		aggregate += wait + w
	}
	makespan := float64((n-1)%2)*a + 3*a*float64((n-1)/2) + w
	busy := float64(n * 4 * w)
	if rep.Admitted != n || rep.Rejected != 0 || rep.MakespanCycles != makespan || rep.WaitCycles != waits ||
		rep.AggregateCycles != aggregate || rep.BusyUtilization != busy/(8*makespan) ||
		rep.FragmentationAvg != 0 || rep.AvgSpread != 1 {
		t.Errorf("report %+v, want %d admitted, makespan %v, wait %v, aggregate %v, utilization %v, no fragmentation, spread 1",
			rep, n, makespan, waits, aggregate, busy/(8*makespan))
	}
}

// TestTwinInterventionGate pins intervene's free-total gate on both sides of
// its boundary, on gateBoundaryCases' shape: four long jobs bind two cores
// of node 0, two or three of node 1 and all four of nodes 2 and 3 at cycle
// 0, and a four-task node-required head arrives at H, blocked. Releasing a
// running job v adds T_v free cores and binding the head takes T_h = 4, so
// FreeTotal + T_v − T_h cores are left for v to re-place on.
//
//   - FreeTotal = T_h − 1 = 3: fewer than T_v remain for every v, the gate
//     skips both attempts, and the head starts when a node first empties —
//     node 1, at its job's finish W1 — and finishes at W1 + Wh.
//   - FreeTotal = T_h = 4: exactly T_v remain for v = node 0's job, which
//     moves to node 1 (node 1's job bills the same, and ties go to the lower
//     sequence), and the head starts at H. With vol=0 the move prices no
//     communication, so its bill is the migration of two tasks between the
//     nodes, and v finishes at W0 + bill.
func TestTwinInterventionGate(t *testing.T) {
	const (
		h                      = 1e4
		w0, w1, w2, w3, wh     = 5e7, 3e7, 8e7, 9e7, 2e6
		spec                   = "rack:2 node:2 pack:1 core:4 pu:1"
		headTasks, node1Before = 4, 3
	)
	opts := Options{Policy: TopoAware, Fit: WorstFit, Backfill: true, Preempt: true, Defrag: true}
	stream := func(node1 int) []JobSpec {
		return []JobSpec{
			{Name: "n0", WorkCycles: w0, Tasks: 2, Required: "node"},
			{Name: "n1", WorkCycles: w1, Tasks: node1, Required: "node"},
			{Name: "n2", WorkCycles: w2, Tasks: 4, Required: "node"},
			{Name: "n3", WorkCycles: w3, Tasks: 4, Required: "node"},
			{Name: "head", ArriveCycles: h, WorkCycles: wh, Tasks: headTasks, Required: "node", Priority: 1},
		}
	}

	rep := mustRun(t, schedMachine(t, spec), opts, stream(node1Before))
	requireStat(t, rep, 0, 0, w0, 0)
	requireStat(t, rep, 1, 0, w1, 0)
	requireStat(t, rep, 4, w1, w1+wh, w1-h)
	if rep.DefragMigrations != 0 || rep.Preemptions != 0 || rep.Backfills != 0 || rep.MakespanCycles != w3 {
		t.Errorf("free total T_h−1: %d moves, %d preemptions, %d backfills, makespan %v; want none and %v",
			rep.DefragMigrations, rep.Preemptions, rep.Backfills, rep.MakespanCycles, w3)
	}

	mach := schedMachine(t, spec)
	rep = mustRun(t, mach, opts, stream(2))
	moved := rep.Jobs[0]
	if rep.DefragMigrations != 1 || rep.Preemptions != 0 || len(moved.Segments) != 2 {
		t.Fatalf("free total T_h: %d moves, %d preemptions, node 0's job in %d segments; want 1, 0, 2",
			rep.DefragMigrations, rep.Preemptions, len(moved.Segments))
	}
	from, to := moved.Segments[0].Cores, moved.Segments[1].Cores
	pu := func(core int) int { return mach.Topology().Cores()[core].Children[0].OSIndex }
	bill := 0.0
	for i := range from {
		bill += mach.MigrationCostCycles(pu(from[i]), pu(to[i]), 0)
	}
	if bill <= 0 || rep.DefragCostCycles != bill || mach.ClusterNodeOfPU(pu(to[0])) != 1 {
		t.Errorf("defrag bill %v onto node %d, want %v > 0 onto node 1", rep.DefragCostCycles, mach.ClusterNodeOfPU(pu(to[0])), bill)
	}
	requireStat(t, rep, 0, 0, w0+bill, 0)
	requireStat(t, rep, 4, h, h+wh, 0)
	if moved.ServiceCycles != h+(w0+bill-h) {
		t.Errorf("moved job served %v cycles, want %v", moved.ServiceCycles, h+(w0+bill-h))
	}
}

// TestTwinBackfillWindow pins conservative backfill's algebra on a two-class
// stream, on two 4-core nodes. A 4-task job works until L; an 8-task head,
// arriving at 100, needs both nodes, so its earliest start is L and at clock
// c its window is L − c. Behind it alternate short jobs (2 tasks, work S)
// and long ones (2 tasks, work Lw), one per 100 cycles from 200:
//
//   - a short job arriving at c ≤ 400 has S ≤ L − c, so it jumps: it starts
//     at c and finishes at c + S ≤ L;
//   - a long job has Lw > L − c, so it waits for the head: it starts at the
//     head's finish L + Wh.
//
// The head starts at L bit for bit with and without the short jobs, and
// without backfill every job behind the head starts at L + Wh.
func TestTwinBackfillWindow(t *testing.T) {
	const (
		l, wh, s, lw = 10000.0, 3000.0, 5000.0, 20000.0
		spec         = "rack:1 node:2 pack:1 core:4 pu:1"
	)
	stream := func(withShort bool) []JobSpec {
		jobs := []JobSpec{
			{Name: "long", WorkCycles: l, Tasks: 4},
			{Name: "head", ArriveCycles: 100, WorkCycles: wh, Tasks: 8},
		}
		for k, at := range []float64{200, 300, 400, 500} {
			if k%2 == 1 {
				jobs = append(jobs, JobSpec{Name: fmt.Sprintf("L%d", k), ArriveCycles: at, WorkCycles: lw, Tasks: 2})
			} else if withShort {
				jobs = append(jobs, JobSpec{Name: fmt.Sprintf("S%d", k), ArriveCycles: at, WorkCycles: s, Tasks: 2})
			}
		}
		return jobs
	}

	rep := mustRun(t, schedMachine(t, spec), Options{Policy: TopoAware, Backfill: true}, stream(true))
	requireStat(t, rep, 0, 0, l, 0)
	requireStat(t, rep, 1, l, l+wh, l-100)
	for i := 2; i < len(rep.Jobs); i++ {
		at := rep.Jobs[i].ArriveCycles
		if i%2 == 0 { // short: jumps
			requireStat(t, rep, i, at, at+s, 0)
		} else {
			requireStat(t, rep, i, l+wh, l+wh+lw, l+wh-at)
		}
		if rep.Jobs[i].Backfilled != (i%2 == 0) {
			t.Errorf("%s: backfilled %v", rep.Jobs[i].Name, rep.Jobs[i].Backfilled)
		}
	}
	if rep.Backfills != 2 {
		t.Errorf("%d backfills, want the 2 short jobs", rep.Backfills)
	}

	without := mustRun(t, schedMachine(t, spec), Options{Policy: TopoAware, Backfill: true}, stream(false))
	if without.Jobs[1].StartCycles != rep.Jobs[1].StartCycles || without.Jobs[1].FinishCycles != rep.Jobs[1].FinishCycles {
		t.Errorf("head runs [%v, %v) without the short jobs, [%v, %v) with them",
			without.Jobs[1].StartCycles, without.Jobs[1].FinishCycles, rep.Jobs[1].StartCycles, rep.Jobs[1].FinishCycles)
	}

	fifo := mustRun(t, schedMachine(t, spec), Options{Policy: TopoAware}, stream(true))
	requireStat(t, fifo, 1, l, l+wh, l-100)
	for i := 2; i < len(fifo.Jobs); i++ {
		at, work := fifo.Jobs[i].ArriveCycles, lw
		if i%2 == 0 {
			work = s
		}
		requireStat(t, fifo, i, l+wh, l+wh+work, l+wh-at)
	}
	if fifo.Backfills != 0 {
		t.Errorf("%d backfills with backfill off", fifo.Backfills)
	}
}

// TestTwinPreemptThreshold pins preemption's commit rule — the head's wait
// saving must exceed the victims' bill — on both sides of its boundary, on
// two 4-core nodes under worst fit. From cycle 0 a low-priority unconstrained
// job v (2 tasks, work Wv) runs on node 0 and a node-required job b (2 tasks,
// work Wb) on node 1; a 4-task node-required head of priority 1 arrives at
// H, blocked with 4 cores free in total. Left alone it starts when b leaves,
// so its wait saving is Wb − H. Evicting v opens node 0, and with vol=0 the
// bill is v's checkpoint writes and respawn pulls,
// 2·(CheckpointCostCycles + MigrationCostCycles), as priced by any two PUs.
//
//   - Wb = H + bill: the saving equals the bill, nothing is evicted, and the
//     head runs on node 1 from Wb.
//   - Wb = H + bill + 1: v is evicted at H, the head runs on node 0 from H,
//     and v resumes on node 1 at once, paying its respawn: it finishes at
//     Wv + bill.
func TestTwinPreemptThreshold(t *testing.T) {
	const (
		h, wv, wh = 1e4, 5e7, 2e6
		spec      = "rack:1 node:2 pack:1 core:4 pu:1"
	)
	opts := Options{Policy: TopoAware, Fit: WorstFit, Preempt: true}
	stream := func(wb float64) []JobSpec {
		return []JobSpec{
			{Name: "v", WorkCycles: wv, Tasks: 2},
			{Name: "b", WorkCycles: wb, Tasks: 2, Required: "node"},
			{Name: "head", ArriveCycles: h, WorkCycles: wh, Tasks: 4, Required: "node", Priority: 1},
		}
	}
	mach := schedMachine(t, spec)
	bill := 2 * (mach.CheckpointCostCycles(0, 0) + mach.MigrationCostCycles(0, 1, 0))
	if bill <= 0 {
		t.Fatalf("bill %v, want > 0", bill)
	}

	rep := mustRun(t, mach, opts, stream(h+bill))
	requireStat(t, rep, 0, 0, wv, 0)
	requireStat(t, rep, 1, 0, h+bill, 0)
	requireStat(t, rep, 2, h+bill, h+bill+wh, bill)
	if rep.Preemptions != 0 || rep.RespawnCycles != 0 {
		t.Errorf("saving = bill: %d preemptions, respawn %v; want none", rep.Preemptions, rep.RespawnCycles)
	}

	mach = schedMachine(t, spec)
	rep = mustRun(t, mach, opts, stream(h+bill+1))
	requireStat(t, rep, 0, 0, wv+bill, 0)
	requireStat(t, rep, 1, 0, h+bill+1, 0)
	requireStat(t, rep, 2, h, h+wh, 0)
	v := rep.Jobs[0]
	if rep.Preemptions != 1 || rep.RespawnCycles != bill || len(v.Segments) != 2 {
		t.Fatalf("saving = bill + 1: %d preemptions, respawn %v, v in %d segments; want 1, %v, 2",
			rep.Preemptions, rep.RespawnCycles, len(v.Segments), bill)
	}
	nodeOf := func(core int) int { return mach.ClusterNodeOfPU(mach.Topology().Cores()[core].Children[0].OSIndex) }
	if first, second := v.Segments[0], v.Segments[1]; first.FinishCycles != h || second.StartCycles != h ||
		nodeOf(first.Cores[0]) != 0 || nodeOf(second.Cores[0]) != 1 {
		t.Errorf("v ran %+v then %+v; want node 0 until %v, then node 1", first, second, h)
	}
}

// peakQueue is the longest queue the jobs formed: the queue only grows when
// a job arrives, and right after the events at clock t it holds the jobs
// that have arrived by t and start after it.
func peakQueue(arrive, start []float64) int {
	peak := 0
	for _, t := range arrive {
		q := 0
		for j := range arrive {
			if arrive[j] <= t && start[j] > t {
				q++
			}
		}
		peak = max(peak, q)
	}
	return peak
}

// TestTwinDDc runs the deterministic D/D/c queue on c 4-core nodes: job i
// (4 tasks, one node's worth, vol=0) arrives at i·A and its service is S.
// Each node is one server and departures come in start order, so job i
// takes the node job i−c leaves: start_i = max(i·A, start_{i−c} + S).
//
//   - S ≥ c·A: the servers never idle once the queue forms, and the
//     recursion solves to wait_i = ⌊i/c⌋·(S − c·A), start_i = i·A + wait_i.
//     Right after job i arrives the queue holds the jobs j ≤ i still
//     waiting, those with ⌊j/c⌋·(S − c·A) > (i − j)·A; for the last arrival
//     of the run below (c = 3, S − c·A = 2A, 12 jobs) that is jobs 8–11: a
//     peak of 4. S = c·A is the boundary: a node frees exactly as the next
//     job arrives, and departures go first, so nobody waits.
//   - S < c·A: a node is always free at an arrival, so every wait is 0 and
//     no queue forms; over the arrival window N·A the slots are busy
//     N·4·S / (4c·N·A) = S/(c·A) of the time.
func TestTwinDDc(t *testing.T) {
	const (
		c = 3
		a = 1000.0
	)
	spec := fmt.Sprintf("rack:1 node:%d pack:1 core:4 pu:1", c)
	run := func(n int, s float64) *Report {
		jobs := make([]JobSpec, n)
		for i := range jobs {
			jobs[i] = JobSpec{Name: fmt.Sprintf("j%d", i), ArriveCycles: float64(i) * a, WorkCycles: s, Tasks: 4, Pattern: "ring"}
		}
		rep := mustRun(t, schedMachine(t, spec), Options{Policy: TopoAware}, jobs)
		if rep.Admitted != n || rep.Rejected != 0 {
			t.Fatalf("S = %v: %d admitted, %d rejected; want all %d", s, rep.Admitted, rep.Rejected, n)
		}
		return rep
	}
	queue := func(rep *Report) int {
		arrive, start := make([]float64, len(rep.Jobs)), make([]float64, len(rep.Jobs))
		for i, st := range rep.Jobs {
			arrive[i], start[i] = st.ArriveCycles, st.StartCycles
		}
		return peakQueue(arrive, start)
	}

	for _, tc := range []struct {
		s    float64
		peak int
	}{{c*a + 2*a, 4}, {c * a, 0}} {
		const n = 12
		rep := run(n, tc.s)
		var waits, last float64
		for i := 0; i < n; i++ {
			wait := float64(i/c) * (tc.s - c*a)
			start := float64(i)*a + wait
			requireStat(t, rep, i, start, start+tc.s, wait)
			waits += wait
			last = start
		}
		makespan := last + tc.s
		busy := float64(n * 4 * tc.s)
		if rep.MakespanCycles != makespan || rep.WaitCycles != waits || rep.BusyUtilization != busy/(float64(4*c)*makespan) {
			t.Errorf("S = %v: makespan %v wait %v utilization %v, want %v %v %v",
				tc.s, rep.MakespanCycles, rep.WaitCycles, rep.BusyUtilization, makespan, waits, busy/(float64(4*c)*makespan))
		}
		if got := queue(rep); got != tc.peak {
			t.Errorf("S = %v: peak queue %d, want %d", tc.s, got, tc.peak)
		}
	}

	const n, s = 9, 2 * a // S < c·A
	rep := run(n, s)
	var served float64
	for i := 0; i < n; i++ {
		requireStat(t, rep, i, float64(i)*a, float64(i)*a+s, 0)
		served += float64(rep.Jobs[i].Tasks) * rep.Jobs[i].ServiceCycles
	}
	if u := served / (float64(4*c) * (n * a)); u != s/(c*a) {
		t.Errorf("utilization over the arrival window %v, want S/(c·A) = %v", u, s/(c*a))
	}
	if got := queue(rep); rep.WaitCycles != 0 || got != 0 {
		t.Errorf("S < c·A: total wait %v, peak queue %d; want no queue", rep.WaitCycles, got)
	}
}
