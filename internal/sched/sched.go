package sched

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// Policy selects the placement strategy of the scheduler.
type Policy int

const (
	// TopoAware is the full system: preferred-tier fallback, fit-scored
	// domain choice, affinity-aware intra-domain layout via the placement
	// engine restricted to the domain's free slots.
	TopoAware Policy = iota
	// TopoBlind honors required constraints but ignores preferred tiers
	// and domain scoring: the first (lowest-index) domain that fits wins
	// and tasks fill its free slots in plain core order.
	TopoBlind
	// FirstFit is the topology-oblivious baseline: constraints are not
	// understood at all, and tasks scatter round-robin across the nodes'
	// free slots.
	FirstFit
)

var policyNames = map[Policy]string{TopoAware: "topo-aware", TopoBlind: "topo-blind", FirstFit: "first-fit"}

func (p Policy) String() string { return policyNames[p] }

// ParsePolicy maps a CLI name to a Policy.
func ParsePolicy(name string) (Policy, error) {
	for p, n := range policyNames {
		if n == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want topo-aware, topo-blind or first-fit)", name)
}

// Fit selects how the topology-aware policy scores candidate domains.
type Fit int

const (
	// BestFit packs: among fitting domains the one with the least free
	// capacity wins, keeping large domains whole for large jobs.
	BestFit Fit = iota
	// WorstFit spreads: the domain with the most free capacity wins.
	WorstFit
)

// ParseFit maps a CLI name to a Fit rule.
func ParseFit(name string) (Fit, error) {
	switch name {
	case "best":
		return BestFit, nil
	case "worst":
		return WorstFit, nil
	}
	return 0, fmt.Errorf("sched: unknown fit rule %q (want best or worst)", name)
}

func (f Fit) String() string {
	if f == WorstFit {
		return "worst"
	}
	return "best"
}

// QueuePolicy decides what happens to a job whose required tier is full at
// placement time.
type QueuePolicy int

const (
	// QueueWait keeps the job at the head of the FIFO queue until
	// capacity frees up.
	QueueWait QueuePolicy = iota
	// QueueReject drops a required-constrained job immediately when no
	// domain of its allowed tiers currently fits it; unconstrained jobs
	// always wait.
	QueueReject
)

// ParseQueuePolicy maps a CLI name to a QueuePolicy.
func ParseQueuePolicy(name string) (QueuePolicy, error) {
	switch name {
	case "wait":
		return QueueWait, nil
	case "reject":
		return QueueReject, nil
	}
	return 0, fmt.Errorf("sched: unknown queue policy %q (want wait or reject)", name)
}

func (q QueuePolicy) String() string {
	if q == QueueReject {
		return "reject"
	}
	return "wait"
}

// Options configures a Scheduler.
type Options struct {
	Policy Policy
	Fit    Fit
	Queue  QueuePolicy
	// Backfill lets queued jobs jump a blocked FIFO head when their whole
	// modeled service fits inside the head's earliest-feasible-start
	// window, so the head is never delayed (conservative backfill).
	Backfill bool
	// Preempt lets a required-constrained arrival of higher priority
	// checkpoint-and-requeue strictly-lower-priority unconstrained jobs
	// when that is the only way to open its domain; victims pay the
	// checkpoint/respawn bill, and the eviction only happens when the
	// head's modeled wait saving exceeds that bill.
	Preempt bool
	// Defrag migrates one running job to compact a domain for a blocked
	// head once instantaneous fragmentation reaches DefragThreshold,
	// committing only when the head's wait saving beats the migration
	// bill (the adaptive engine's hysteresis pattern).
	Defrag bool
	// DefragThreshold is the fragmentation weight (0..1, see
	// Report.FragmentationAvg) that arms defragmentation; 0 arms it
	// whenever the head is blocked.
	DefragThreshold float64
}

// Scheduler is the online multi-tenant scheduler: one instance owns the
// platform's free-capacity index and replays a workload stream through its
// event loop. Run is not reentrant, and only its own lookahead goroutine
// runs beside the loop.
type Scheduler struct {
	mach *numasim.Machine
	topo *topology.Topology
	cap  *Capacity
	opts Options
	// coreOfPU maps a PU OS index back to its core level index.
	coreOfPU map[int]int
	// nodeCores counts the total core slots of every cluster node.
	nodeCores []int
	// tryPlaces and placements count one Run's probe work: tryPlace calls,
	// and engine placements (misses of placeAware's layout memo). Run
	// resets them; they measure the work without a host clock.
	tryPlaces, placements int
}

// New builds a scheduler for the machine.
func New(mach *numasim.Machine, opts Options) (*Scheduler, error) {
	if mach == nil {
		return nil, fmt.Errorf("sched: scheduler requires a machine")
	}
	topo := mach.Topology()
	cap, err := NewCapacity(topo)
	if err != nil {
		return nil, err
	}
	coreOfPU := map[int]int{}
	nodeCores := make([]int, topo.NumClusterNodes())
	for ci, core := range topo.Cores() {
		for _, pu := range core.Children {
			coreOfPU[pu.OSIndex] = ci
		}
		nodeCores[cap.nodeOf[ci]]++
	}
	return &Scheduler{mach: mach, topo: topo, cap: cap, opts: opts, coreOfPU: coreOfPU, nodeCores: nodeCores}, nil
}

// Capacity exposes the live free-capacity index (read-only use).
func (s *Scheduler) Capacity() *Capacity { return s.cap }

// JobStat reports one job's fate.
type JobStat struct {
	Name     string
	Tasks    int
	Priority int
	// Cycle timeline: StartCycles is the first dispatch, FinishCycles the
	// final departure. ServiceCycles accumulates the time actually spent
	// running (including respawn and migration surcharges) and WaitCycles
	// the time spent queued, so Arrive + Wait + Service = Finish even for
	// jobs that were preempted and restarted.
	ArriveCycles, StartCycles, FinishCycles float64
	WaitCycles, ServiceCycles, CommCycles   float64
	// Tier and Domain identify the fabric domain of the last placement.
	Tier   string
	Domain int
	// Cores lists the bound core level indices of the last placement,
	// ascending.
	Cores []int
	// NodesSpanned counts distinct cluster nodes of the last placement.
	NodesSpanned int
	// Segments records every [start, finish) × cores residency of the job:
	// one entry per dispatch, plus one per defrag migration. Preemption
	// truncates the open segment at the eviction clock. The exclusivity
	// invariant (no core shared by two jobs at once) is stated over
	// segments, not over the final Cores.
	Segments []Segment
	// Backfilled marks a job that was dispatched past a blocked FIFO head.
	Backfilled bool
	// Preemptions counts how many times the job was checkpoint-requeued.
	Preemptions int
	// RespawnCycles totals the checkpoint/respawn surcharge the job paid
	// across restarts (priced by numasim.CheckpointCostCycles and
	// MigrationCostCycles plus the comm delta of the new layout).
	RespawnCycles float64
	// DefragMigrations counts mid-service compaction moves of this job;
	// DefragCostCycles totals their (signed) service delta.
	DefragMigrations int
	DefragCostCycles float64
	Rejected         bool
	RejectReason     string
}

// Segment is one contiguous residency of a job on a fixed core set.
type Segment struct {
	StartCycles, FinishCycles float64
	Cores                     []int
}

// Report aggregates one scheduler run.
type Report struct {
	Policy string
	Jobs   []JobStat
	// Admitted/Rejected partition the stream.
	Admitted, Rejected int
	// AggregateCycles sums finish − arrival over admitted jobs — the A15
	// ordering metric (placement quality shortens service, packing
	// shortens waits).
	AggregateCycles float64
	// MakespanCycles is the departure time of the last job.
	MakespanCycles float64
	// WaitCycles sums queueing delay over admitted jobs.
	WaitCycles float64
	// BusyUtilization is Σ tasks·service / (cores · makespan): the slot
	// occupancy achieved over the run.
	BusyUtilization float64
	// FragmentationAvg is the time-weighted mean of 1 − maxNodeFree/totalFree:
	// 0 when the free capacity sits in whole nodes (packed), approaching 1
	// when it is shredded into slivers across many nodes (fragmented).
	FragmentationAvg float64
	// AvgSpread is the mean node count spanned by admitted jobs.
	AvgSpread float64
	// Phase-2 policy activity: jobs dispatched past a blocked head,
	// checkpoint-requeue evictions, and committed compaction moves.
	Backfills, Preemptions, DefragMigrations int
	// RespawnCycles totals the checkpoint/respawn bills paid by preempted
	// jobs; DefragCostCycles the (signed) service deltas of defrag moves.
	RespawnCycles, DefragCostCycles float64
}

// jobState tracks one in-flight job through the event loop.
type jobState struct {
	spec JobSpec
	seq  int
	stat *JobStat
	// waitSince is when the current queueing episode began: the arrival
	// for a fresh job, the eviction clock for a preempted one.
	waitSince float64
	// resume carries the checkpoint of a preempted job awaiting restart;
	// nil for jobs that are running fresh.
	resume *resumeState
	// reason is infeasible's verdict, fixed before the loop starts: "" when
	// the job can ever run on the platform.
	reason string
	// ready is closed by Run's lookahead once m and err are set (and, under
	// TopoAware, the root spectral order is in spectral); every placement
	// probe of the job reads the same m.
	ready chan struct{}
	m     *comm.Matrix
	err   error
	// layouts memoizes placeAware's AssignFreeSlots layout (task → PU) by
	// the bitset of the chosen nodes' free cores, which fixes its view.
	layouts map[string][]int
	// spectral memoizes the spectral orders of m by entity subset: they do
	// not depend on the view, so probes of other views reuse them.
	spectral treematch.SpectralMemo
}

// matrix is the job's communication matrix, as Run's lookahead built it from
// the pattern — a job rejected as infeasible never pays for one.
func (j *jobState) matrix() (*comm.Matrix, error) {
	<-j.ready
	return j.m, j.err
}

// lookaheadWindow bounds how many arrivals the lookahead runs ahead of the
// loop, so a long stream never holds more than this many matrices the loop
// has not reached yet.
const lookaheadWindow = 16

// lookahead builds every feasible job's matrix in arrival order and, under
// TopoAware, warms its memo with the whole-matrix spectral order — the
// partition portfolio's longest serial step — while the loop works on
// earlier jobs. Both are pure functions of the spec, so only where the work
// runs changes, never a bit of it. Each job takes a slot of window, which
// the loop frees as it consumes the arrival; stop ends the walk.
func (s *Scheduler) lookahead(order []*jobState, window chan<- struct{}, stop <-chan struct{}) {
	var warm treematch.SpectralWarmer
	rng := rand.New(rand.NewSource(0)) // re-seeded for every scrambled stencil
	for _, j := range order {
		select {
		case window <- struct{}{}:
		case <-stop:
			return
		}
		if j.reason == "" {
			j.m, j.err = j.spec.matrix(rng)
			if j.err == nil && s.opts.Policy == TopoAware {
				warm.Warm(&j.spectral, j.m)
			}
		}
		close(j.ready)
	}
}

// departure orders the running set by (finish, seq) and carries everything a
// mid-service intervention (preemption, defrag migration) needs to unwind
// the dispatch: the exact binding, its priced comm, and the service total
// the dispatch was charged at.
type departure struct {
	finish float64
	seq    int
	job    *jobState
	cores  []int
	// taskPU maps task index to bound PU OS index (prices migrations).
	taskPU []int
	// comm is the full-matrix communication cost of this layout; service
	// the total service this dispatch was priced at; lastStart when the
	// current segment began.
	comm, service, lastStart float64
	stat                     *JobStat
}

type departureHeap []departure

func (h departureHeap) Len() int { return len(h) }
func (h departureHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h departureHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *departureHeap) Push(x any)   { *h = append(*h, x.(departure)) }
func (h *departureHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// runLoop is one Run invocation's mutable event-loop state. The phase-2
// policies (phase2.go) are methods on it: they inspect the queue and the
// running set, perform hypothetical placements against the live capacity
// index (undoing every probe), and commit through the same dispatch path
// the FIFO drain uses.
type runLoop struct {
	s       *Scheduler
	rep     *Report
	queue   []*jobState
	running departureHeap
	clock   float64
	fragInt float64
	busy    float64
}

// weight is the instantaneous fragmentation: 1 − maxNodeFree/totalFree.
func (r *runLoop) weight() float64 {
	total := r.s.cap.FreeTotal()
	if total == 0 {
		return 0
	}
	return 1 - float64(r.s.cap.MaxNodeFree())/float64(total)
}

// advance moves the clock to t, accruing time-weighted fragmentation.
func (r *runLoop) advance(t float64) {
	if t > r.clock {
		r.fragInt += float64(r.weight() * (t - r.clock))
		r.clock = t
	}
}

// closeSegment accounts the end of one residency segment: service time and
// busy slot-cycles accrue only here, so preemption and defrag keep the
// aggregates exact.
func (r *runLoop) closeSegment(d *departure, at float64) {
	delta := at - d.lastStart
	d.stat.ServiceCycles += delta
	r.busy += float64(float64(d.stat.Tasks) * delta)
}

// dispatch commits a placement: binds the slots, prices the service
// (including the respawn bill of a preempted job), opens a residency
// segment, and schedules the departure.
func (r *runLoop) dispatch(j *jobState, placed *placementResult, backfilled bool) error {
	if err := r.s.cap.Bind(placed.cores); err != nil {
		return fmt.Errorf("sched: bind %s: %w", j.spec.Name, err)
	}
	svc, respawn := r.s.serviceOf(j, placed)
	st := j.stat
	if len(st.Segments) == 0 {
		st.StartCycles = r.clock
	}
	st.WaitCycles += r.clock - j.waitSince
	st.CommCycles = placed.comm
	st.FinishCycles = r.clock + svc
	st.Tier = placed.tier
	st.Domain = placed.domain
	st.Cores = placed.cores
	st.NodesSpanned = placed.nodes
	st.Segments = append(st.Segments, Segment{StartCycles: r.clock, FinishCycles: st.FinishCycles, Cores: placed.cores})
	if respawn > 0 {
		st.RespawnCycles += respawn
		r.rep.RespawnCycles += respawn
	}
	if backfilled {
		st.Backfilled = true
		r.rep.Backfills++
	}
	j.resume = nil
	heap.Push(&r.running, departure{
		finish: st.FinishCycles, seq: j.seq, job: j, cores: placed.cores,
		taskPU: placed.taskPU, comm: placed.comm, service: svc, lastStart: r.clock, stat: st,
	})
	return nil
}

// depart releases a finished job's slots and closes its last segment.
func (r *runLoop) depart(d departure) error {
	if err := r.s.cap.Release(d.cores); err != nil {
		return fmt.Errorf("sched: release %s: %w", d.stat.Name, err)
	}
	r.closeSegment(&d, d.finish)
	return nil
}

// drain places as much of the FIFO queue as capacity allows. When the head
// is blocked the phase-2 policies get a shot in escalating order of cost:
// defragment (move one running job, nobody loses time unpaid), preempt
// (evict strictly-lower-priority jobs, they pay checkpoint/respawn) — both
// behind intervene's free-total gate — and finally backfill jobs that
// provably cannot delay the head.
func (r *runLoop) drain() error {
	for len(r.queue) > 0 {
		j := r.queue[0]
		placed, full, err := r.s.tryPlace(j)
		if err != nil {
			return err
		}
		if placed == nil {
			if full && j.spec.Required != "" && r.s.opts.Queue == QueueReject && j.resume == nil {
				j.stat.Rejected = true
				j.stat.RejectReason = "required tier full"
				r.rep.Rejected++
				r.queue = r.queue[1:]
				continue
			}
			opened, err := r.intervene(j)
			if err != nil {
				return err
			}
			if opened {
				continue // compaction or eviction opened the head's domain: retry it
			}
			if r.s.opts.Backfill {
				if err := r.backfill(j); err != nil {
					return err
				}
			}
			return nil // FIFO head waits; everything behind it waits too
		}
		if err := r.dispatch(j, placed, false); err != nil {
			return err
		}
		r.queue = r.queue[1:]
	}
	return nil
}

// intervene runs the blocked head's defrag, then its preemption attempt,
// behind one free-total gate. A running job holds one core per task, so
// releasing a candidate v adds T_v free cores and binding the head takes
// T_h: FreeTotal + T_v − T_h cores remain, fewer than T_v exactly when
// FreeTotal < T_h. Then no defrag candidate can re-place, and no preemption
// victim could restart at once, so neither attempt can commit and both are
// skipped unprobed. A head whose matrix fails still fails Run with the same
// error, read when the head is finally placed.
func (r *runLoop) intervene(head *jobState) (bool, error) {
	if r.s.cap.FreeTotal() < head.spec.Tasks {
		return false, nil
	}
	moved, err := r.defragAttempt(head)
	if err != nil || moved {
		return moved, err
	}
	return r.preemptAttempt(head)
}

// Run replays the workload stream through the event loop and returns the
// report. Jobs are admitted FIFO in arrival order (ties broken by input
// order); the virtual clock advances from arrival to departure events and
// the free-capacity index binds and releases slots as jobs start and finish.
// A lookahead goroutine prepares each job's matrix a few arrivals ahead of
// the loop; Run stops and joins it before returning.
func (s *Scheduler) Run(jobs []JobSpec) (*Report, error) {
	rep := &Report{Policy: s.opts.Policy.String(), Jobs: make([]JobStat, len(jobs))}
	s.tryPlaces, s.placements = 0, 0
	states := make([]*jobState, len(jobs))
	for i, spec := range jobs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		rep.Jobs[i] = JobStat{Name: spec.Name, Tasks: spec.Tasks, Priority: spec.Priority, ArriveCycles: spec.ArriveCycles}
		states[i] = &jobState{spec: spec, seq: i, stat: &rep.Jobs[i], waitSince: spec.ArriveCycles,
			reason: s.infeasible(spec), ready: make(chan struct{})}
	}
	order := make([]*jobState, len(states))
	copy(order, states)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].spec.ArriveCycles < order[j].spec.ArriveCycles
	})

	window := make(chan struct{}, lookaheadWindow)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		s.lookahead(order, window, stop)
	}()
	defer func() {
		close(stop)
		<-done
	}()

	r := &runLoop{s: s, rep: rep}
	next := 0
	for next < len(order) || r.running.Len() > 0 {
		tArr, tDep := math.Inf(1), math.Inf(1)
		if next < len(order) {
			tArr = order[next].spec.ArriveCycles
		}
		if r.running.Len() > 0 {
			tDep = r.running[0].finish
		}
		t := tArr
		if tDep < t {
			t = tDep
		}
		r.advance(t)
		for r.running.Len() > 0 && r.running[0].finish == r.clock {
			d := heap.Pop(&r.running).(departure)
			if err := r.depart(d); err != nil {
				return nil, err
			}
		}
		for next < len(order) && order[next].spec.ArriveCycles == r.clock {
			j := order[next]
			next++
			<-window
			if j.reason != "" {
				j.stat.Rejected = true
				j.stat.RejectReason = j.reason
				rep.Rejected++
				continue
			}
			r.queue = append(r.queue, j)
		}
		if err := r.drain(); err != nil {
			return nil, err
		}
	}

	for i := range rep.Jobs {
		st := &rep.Jobs[i]
		if st.Rejected {
			continue
		}
		rep.Admitted++
		rep.AggregateCycles += st.FinishCycles - st.ArriveCycles
		rep.WaitCycles += st.WaitCycles
		rep.AvgSpread += float64(st.NodesSpanned)
		if st.FinishCycles > rep.MakespanCycles {
			rep.MakespanCycles = st.FinishCycles
		}
	}
	if rep.Admitted > 0 {
		rep.AvgSpread /= float64(rep.Admitted)
	}
	if rep.MakespanCycles > 0 {
		rep.BusyUtilization = r.busy / (float64(s.topo.NumCores()) * rep.MakespanCycles)
		rep.FragmentationAvg = r.fragInt / rep.MakespanCycles
	}
	return rep, nil
}

// serviceOf prices one dispatch of a job under a placement. A fresh job is
// its work plus the layout's comm; a preempted job resumes its outstanding
// remainder, re-priced for the new layout's comm on the outstanding
// fraction, plus the respawn bill of pulling every task's checkpoint image
// from its old PU (numasim.MigrationCostCycles). The second return is that
// respawn bill alone.
func (s *Scheduler) serviceOf(j *jobState, placed *placementResult) (svc, respawn float64) {
	if j.resume == nil {
		return j.spec.WorkCycles + placed.comm, 0
	}
	rs := j.resume
	ws := workingSetBytes(j.spec)
	for t, old := range rs.oldPUs {
		respawn += s.mach.MigrationCostCycles(old, placed.taskPU[t], ws)
	}
	svc = rs.remaining + float64((placed.comm-rs.comm)*rs.remFrac) + respawn
	return svc, respawn
}

// infeasible reports why a job can never run on this platform, or "" when it
// can. FirstFit ignores constraints, so only raw capacity counts there.
func (s *Scheduler) infeasible(spec JobSpec) string {
	if spec.Tasks > s.topo.NumCores() {
		return fmt.Sprintf("%d tasks exceed %d cores", spec.Tasks, s.topo.NumCores())
	}
	if s.opts.Policy == FirstFit {
		return ""
	}
	tiers, err := s.tierLadder(spec)
	if err != nil {
		return err.Error()
	}
	widest := tiers[len(tiers)-1]
	max := 0
	for d := range s.cap.Domains(widest) {
		if c := s.domainCapacity(widest, d); c > max {
			max = c
		}
	}
	if spec.Tasks > max {
		return fmt.Sprintf("%d tasks exceed the %d-core capacity of every %s domain", spec.Tasks, max, tierNames[widest])
	}
	return ""
}

// domainCapacity is the total (free or bound) slot count of a domain.
func (s *Scheduler) domainCapacity(tier topology.Kind, d int) int {
	total := 0
	for _, n := range s.cap.Domains(tier)[d].Nodes {
		total += s.nodeCores[n]
	}
	return total
}

// tierNames maps each fabric tier to the constraint grammar's name.
var tierNames = map[topology.Kind]string{topology.Cluster: "node", topology.Rack: "rack", topology.Pod: "pod", topology.Machine: "machine"}

// tierKind resolves a constraint tier name against the platform, erroring on
// tiers the platform does not have.
func (s *Scheduler) tierKind(name string) (topology.Kind, error) {
	if name == "" {
		return topology.Machine, nil
	}
	for _, k := range s.topo.DomainTiers() {
		if tierNames[k] == name {
			return k, nil
		}
	}
	if _, ok := tierWidth[name]; !ok {
		return 0, fmt.Errorf("unknown tier %q", name)
	}
	return 0, fmt.Errorf("platform has no %s tier", name)
}

// tierLadder lists the tiers a job may be placed at, narrowest first:
// from its preferred tier (default: narrowest) widening up to its required
// tier (default: the whole machine).
func (s *Scheduler) tierLadder(spec JobSpec) ([]topology.Kind, error) {
	all := s.topo.DomainTiers()
	lo, hi := 0, len(all)-1
	if spec.Preferred != "" {
		k, err := s.tierKind(spec.Preferred)
		if err != nil {
			return nil, err
		}
		lo = tierIndex(all, k)
	}
	if spec.Required != "" {
		k, err := s.tierKind(spec.Required)
		if err != nil {
			return nil, err
		}
		hi = tierIndex(all, k)
	}
	if lo > hi {
		lo = hi
	}
	return all[lo : hi+1], nil
}

func tierIndex(tiers []topology.Kind, k topology.Kind) int {
	for i, t := range tiers {
		if t == k {
			return i
		}
	}
	return len(tiers) - 1
}

// placementResult carries one successful placement attempt. tryPlace never
// mutates the capacity index, so results double as hypothetical placements:
// the phase-2 policies probe them against temporarily released capacity and
// only dispatch commits a binding.
type placementResult struct {
	cores  []int
	taskPU []int
	comm   float64
	tier   string
	domain int
	nodes  int
}

// tryPlace attempts to place the job now. Returns (nil, full, nil) when no
// allowed domain currently fits: full distinguishes "no capacity in the
// allowed tiers" for the queue policy.
func (s *Scheduler) tryPlace(j *jobState) (*placementResult, bool, error) {
	s.tryPlaces++
	spec := j.spec
	switch s.opts.Policy {
	case FirstFit:
		if s.cap.FreeTotal() < spec.Tasks {
			return nil, true, nil
		}
		return s.placeScatter(j)
	case TopoBlind:
		tiers, err := s.tierLadder(spec)
		if err != nil {
			return nil, false, err
		}
		tier := tiers[len(tiers)-1] // required tier (or machine): preferred ignored
		for d := range s.cap.Domains(tier) {
			if s.cap.DomainFree(tier, d) >= spec.Tasks {
				return s.placeSlotOrder(j, tier, d)
			}
		}
		return nil, true, nil
	default: // TopoAware
		tiers, err := s.tierLadder(spec)
		if err != nil {
			return nil, false, err
		}
		for _, tier := range tiers {
			best := -1
			for d := range s.cap.Domains(tier) {
				free := s.cap.DomainFree(tier, d)
				if free < spec.Tasks {
					continue
				}
				if best < 0 {
					best = d
					continue
				}
				bf := s.cap.DomainFree(tier, best)
				if (s.opts.Fit == BestFit && free < bf) || (s.opts.Fit == WorstFit && free > bf) {
					best = d
				}
			}
			if best >= 0 {
				return s.placeAware(j, tier, best)
			}
		}
		return nil, true, nil
	}
}

// placeAware runs the affinity-aware intra-domain layout: choose the fewest
// nodes (largest free counts first) that hold the job, then delegate to the
// placement engine restricted to those free slots.
func (s *Scheduler) placeAware(j *jobState, tier topology.Kind, d int) (*placementResult, bool, error) {
	dom := s.cap.Domains(tier)[d]
	nodes := append([]int(nil), dom.Nodes...)
	sort.SliceStable(nodes, func(i, j int) bool {
		fi, fj := s.cap.NodeFree(nodes[i]), s.cap.NodeFree(nodes[j])
		if fi != fj {
			return fi > fj
		}
		return nodes[i] < nodes[j]
	})
	var chosen []int
	got := 0
	for _, n := range nodes {
		if got >= j.spec.Tasks {
			break
		}
		if s.cap.NodeFree(n) == 0 {
			continue
		}
		chosen = append(chosen, n)
		got += s.cap.NodeFree(n)
	}
	sort.Ints(chosen)
	m, err := j.matrix()
	if err != nil {
		return nil, false, err
	}
	// AssignFreeSlots is deterministic and, for this job in this Run, a
	// function of its view alone; every chosen node has a free core, so the
	// free-core bitset determines the view.
	key := make([]byte, (len(s.cap.nodeOf)+7)/8)
	for _, n := range chosen {
		for _, c := range s.cap.free[n] {
			key[c/8] |= 1 << (c % 8)
		}
	}
	taskPU, ok := j.layouts[string(key)]
	if !ok {
		s.placements++
		a, err := placement.AssignFreeSlots(s.mach, m, s.cap.FreeSlots(chosen), treematch.Options{Spectral: &j.spectral})
		if err != nil {
			return nil, false, err
		}
		if j.layouts == nil {
			j.layouts = map[string][]int{}
		}
		taskPU = a.TaskPU
		j.layouts[string(key)] = taskPU
	}
	return s.finishPlacement(m, taskPU, tier, d)
}

// placeSlotOrder fills the domain's free slots in plain core order — the
// topology-blind arm's layout.
func (s *Scheduler) placeSlotOrder(j *jobState, tier topology.Kind, d int) (*placementResult, bool, error) {
	dom := s.cap.Domains(tier)[d]
	var slots []int
	for _, n := range dom.Nodes {
		slots = append(slots, s.cap.free[n]...)
	}
	sort.Ints(slots)
	return s.placeOnSlots(j, slots[:j.spec.Tasks], tier, d)
}

// placeScatter deals the free slots round-robin across cluster nodes — the
// classic load-balancing baseline that ignores topology entirely.
func (s *Scheduler) placeScatter(j *jobState) (*placementResult, bool, error) {
	var slots []int
	for depth := 0; len(slots) < j.spec.Tasks; depth++ {
		advanced := false
		for n := range s.cap.free {
			if depth < len(s.cap.free[n]) {
				slots = append(slots, s.cap.free[n][depth])
				advanced = true
				if len(slots) == j.spec.Tasks {
					break
				}
			}
		}
		if !advanced {
			return nil, true, nil
		}
	}
	return s.placeOnSlots(j, slots, topology.Machine, 0)
}

// placeOnSlots binds task i to slot i (identity layout).
func (s *Scheduler) placeOnSlots(j *jobState, slots []int, tier topology.Kind, d int) (*placementResult, bool, error) {
	m, err := j.matrix()
	if err != nil {
		return nil, false, err
	}
	taskPU := make([]int, j.spec.Tasks)
	for t, core := range slots {
		taskPU[t] = s.topo.Cores()[core].Children[0].OSIndex
	}
	return s.finishPlacement(m, taskPU, tier, d)
}

// finishPlacement prices the communication of a placement and packages the
// result.
func (s *Scheduler) finishPlacement(m *comm.Matrix, taskPU []int, tier topology.Kind, d int) (*placementResult, bool, error) {
	sorted := make([]int, len(taskPU))
	for t, pu := range taskPU {
		core, ok := s.coreOfPU[pu]
		if !ok {
			return nil, false, fmt.Errorf("sched: task %d bound to unknown PU %d", t, pu)
		}
		sorted[t] = core
	}
	sort.Ints(sorted)
	nodes := 0 // cores are numbered node by node, so each node is one run
	for i, core := range sorted {
		if i > 0 && core == sorted[i-1] {
			return nil, false, fmt.Errorf("sched: core %d assigned twice", core)
		}
		if i == 0 || s.cap.nodeOf[core] != s.cap.nodeOf[sorted[i-1]] {
			nodes++
		}
	}
	commCycles := 0.0
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(jdx int, vol float64) {
			if jdx != i {
				commCycles += s.mach.TransferCost(taskPU[i], taskPU[jdx], vol)
			}
		})
	}
	return &placementResult{
		cores:  sorted,
		taskPU: append([]int(nil), taskPU...),
		comm:   commCycles,
		tier:   tierNames[tier],
		domain: d,
		nodes:  nodes,
	}, false, nil
}

// FormatReport renders the per-job table and the aggregate block the
// cmd/sched CLI prints.
func FormatReport(rep *Report, mach *numasim.Machine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "policy %s: %d admitted, %d rejected\n", rep.Policy, rep.Admitted, rep.Rejected)
	fmt.Fprintf(&b, "%-10s %6s %10s %10s %10s  %s\n", "job", "tasks", "wait(s)", "service(s)", "cycle(s)", "placement")
	for _, j := range rep.Jobs {
		if j.Rejected {
			fmt.Fprintf(&b, "%-10s %6d %10s %10s %10s  rejected: %s\n", j.Name, j.Tasks, "-", "-", "-", j.RejectReason)
			continue
		}
		notes := ""
		if j.Backfilled {
			notes += " [backfilled]"
		}
		if j.Preemptions > 0 {
			notes += fmt.Sprintf(" [preempted x%d]", j.Preemptions)
		}
		if j.DefragMigrations > 0 {
			notes += fmt.Sprintf(" [defrag x%d]", j.DefragMigrations)
		}
		fmt.Fprintf(&b, "%-10s %6d %10.6f %10.6f %10.6f  %s[%d] over %d node(s)%s\n",
			j.Name, j.Tasks,
			mach.CyclesToSeconds(j.WaitCycles),
			mach.CyclesToSeconds(j.ServiceCycles),
			mach.CyclesToSeconds(j.FinishCycles-j.ArriveCycles),
			j.Tier, j.Domain, j.NodesSpanned, notes)
	}
	fmt.Fprintf(&b, "aggregate job time %.6fs  makespan %.6fs  wait %.6fs\n",
		mach.CyclesToSeconds(rep.AggregateCycles), mach.CyclesToSeconds(rep.MakespanCycles), mach.CyclesToSeconds(rep.WaitCycles))
	fmt.Fprintf(&b, "utilization %.3f  fragmentation %.3f  avg spread %.2f nodes\n",
		rep.BusyUtilization, rep.FragmentationAvg, rep.AvgSpread)
	fmt.Fprintf(&b, "backfills %d  preemptions %d (respawn %.6fs)  defrag moves %d (%.6fs)\n",
		rep.Backfills, rep.Preemptions, mach.CyclesToSeconds(rep.RespawnCycles),
		rep.DefragMigrations, mach.CyclesToSeconds(rep.DefragCostCycles))
	return b.String()
}
