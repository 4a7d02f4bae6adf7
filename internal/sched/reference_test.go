package sched

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// The naive reference scheduler: the differential oracle of Scheduler.Run.
// It recounts everything on every event — a plain per-core free flag with
// node and domain counts summed on demand and no Capacity index, a sorted
// slice of departures instead of a heap, a placement.AssignFreeSlots call on
// every topo-aware placement with no memo — and runs the phase-2 policies as
// their straightforward probes: every backfill candidate is placed before its
// service is compared with the window, and every defrag candidate is
// released, the head placed and the candidate rebound, with no count-fit
// check ahead of it. Any fast path in the scheduler must produce a Report
// reflect.DeepEqual to this one.

type refSched struct {
	// s supplies only the capacity-free helpers (tierLadder, serviceOf);
	// its cap is nil, so a capacity read from the reference panics.
	s        *Scheduler
	mach     *numasim.Machine
	topo     *topology.Topology
	opts     Options
	coreOfPU map[int]int
	// nodeOf maps a core level index to its cluster node; nodeCores lists
	// each node's cores ascending.
	nodeOf    []int
	nodeCores [][]int
	domains   map[topology.Kind][]topology.FabricDomain
	domOf     map[topology.Kind][]int
	// free flags every free core; nothing else about capacity is stored.
	free []bool
}

func newRefSched(mach *numasim.Machine, opts Options) *refSched {
	topo := mach.Topology()
	r := &refSched{
		s:    &Scheduler{mach: mach, topo: topo, opts: opts},
		mach: mach, topo: topo, opts: opts,
		coreOfPU:  map[int]int{},
		nodeOf:    make([]int, topo.NumCores()),
		nodeCores: make([][]int, topo.NumClusterNodes()),
		domains:   map[topology.Kind][]topology.FabricDomain{},
		domOf:     map[topology.Kind][]int{},
		free:      make([]bool, topo.NumCores()),
	}
	nodeIdx := map[*topology.Object]int{}
	for i, node := range topo.ClusterNodes() {
		nodeIdx[node] = i
	}
	for ci, core := range topo.Cores() {
		n := 0
		if cn := topo.ClusterNodeOf(core); cn != nil {
			n = nodeIdx[cn]
		}
		r.nodeOf[ci] = n
		r.nodeCores[n] = append(r.nodeCores[n], ci)
		r.free[ci] = true
		for _, pu := range core.Children {
			r.coreOfPU[pu.OSIndex] = ci
		}
	}
	for _, tier := range topo.DomainTiers() {
		doms := topo.FabricDomains(tier)
		r.domains[tier] = doms
		of := make([]int, len(r.nodeCores))
		for d, dom := range doms {
			for _, n := range dom.Nodes {
				of[n] = d
			}
		}
		r.domOf[tier] = of
	}
	return r
}

func (r *refSched) nodeFree(n int) []int {
	var out []int
	for _, c := range r.nodeCores[n] {
		if r.free[c] {
			out = append(out, c)
		}
	}
	return out
}

func (r *refSched) domainFree(tier topology.Kind, d int) int {
	total := 0
	for _, n := range r.domains[tier][d].Nodes {
		total += len(r.nodeFree(n))
	}
	return total
}

func (r *refSched) freeTotal() int {
	total := 0
	for _, f := range r.free {
		if f {
			total++
		}
	}
	return total
}

// flip binds (toFree false) or releases (toFree true) a core set, every core
// of which must be in range, listed once and in the opposite state.
func (r *refSched) flip(cores []int, toFree bool) error {
	seen := map[int]bool{}
	for _, c := range cores {
		if c < 0 || c >= len(r.free) || seen[c] || r.free[c] == toFree {
			return fmt.Errorf("reference: bad core %d in %v (toFree=%v)", c, cores, toFree)
		}
		seen[c] = true
	}
	for _, c := range cores {
		r.free[c] = toFree
	}
	return nil
}

// refMatrix builds the job's matrix on first use, on the reference's own
// goroutine: the reference never goes through Run's lookahead.
func refMatrix(j *jobState) (*comm.Matrix, error) {
	if j.m == nil {
		m, err := j.spec.Matrix()
		if err != nil {
			return nil, err
		}
		j.m = m
	}
	return j.m, nil
}

func (r *refSched) tryPlace(j *jobState) (*placementResult, bool, error) {
	spec := j.spec
	switch r.opts.Policy {
	case FirstFit:
		if r.freeTotal() < spec.Tasks {
			return nil, true, nil
		}
		return r.placeScatter(j)
	case TopoBlind:
		tiers, err := r.s.tierLadder(spec)
		if err != nil {
			return nil, false, err
		}
		tier := tiers[len(tiers)-1]
		for d := range r.domains[tier] {
			if r.domainFree(tier, d) >= spec.Tasks {
				return r.placeSlotOrder(j, tier, d)
			}
		}
		return nil, true, nil
	default:
		tiers, err := r.s.tierLadder(spec)
		if err != nil {
			return nil, false, err
		}
		for _, tier := range tiers {
			best := -1
			for d := range r.domains[tier] {
				free := r.domainFree(tier, d)
				if free < spec.Tasks {
					continue
				}
				if best < 0 {
					best = d
					continue
				}
				bf := r.domainFree(tier, best)
				if (r.opts.Fit == BestFit && free < bf) || (r.opts.Fit == WorstFit && free > bf) {
					best = d
				}
			}
			if best >= 0 {
				return r.placeAware(j, tier, best)
			}
		}
		return nil, true, nil
	}
}

func (r *refSched) placeAware(j *jobState, tier topology.Kind, d int) (*placementResult, bool, error) {
	nodes := append([]int(nil), r.domains[tier][d].Nodes...)
	sort.SliceStable(nodes, func(a, b int) bool {
		fa, fb := len(r.nodeFree(nodes[a])), len(r.nodeFree(nodes[b]))
		if fa != fb {
			return fa > fb
		}
		return nodes[a] < nodes[b]
	})
	view := make([][]int, len(r.nodeCores))
	got := 0
	for _, n := range nodes {
		if got >= j.spec.Tasks {
			break
		}
		view[n] = r.nodeFree(n)
		got += len(view[n])
	}
	m, err := refMatrix(j)
	if err != nil {
		return nil, false, err
	}
	a, err := placement.AssignFreeSlots(r.mach, m, view, treematch.Options{})
	if err != nil {
		return nil, false, err
	}
	return r.finishPlacement(m, a.TaskPU, tier, d)
}

func (r *refSched) placeSlotOrder(j *jobState, tier topology.Kind, d int) (*placementResult, bool, error) {
	var slots []int
	for _, n := range r.domains[tier][d].Nodes {
		slots = append(slots, r.nodeFree(n)...)
	}
	sort.Ints(slots)
	return r.placeOnSlots(j, slots[:j.spec.Tasks], tier, d)
}

func (r *refSched) placeScatter(j *jobState) (*placementResult, bool, error) {
	var slots []int
	for depth := 0; len(slots) < j.spec.Tasks; depth++ {
		advanced := false
		for n := range r.nodeCores {
			if free := r.nodeFree(n); depth < len(free) {
				slots = append(slots, free[depth])
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
	return r.placeOnSlots(j, slots, topology.Machine, 0)
}

func (r *refSched) placeOnSlots(j *jobState, slots []int, tier topology.Kind, d int) (*placementResult, bool, error) {
	m, err := refMatrix(j)
	if err != nil {
		return nil, false, err
	}
	taskPU := make([]int, len(slots))
	for t, core := range slots {
		taskPU[t] = r.topo.Cores()[core].Children[0].OSIndex
	}
	return r.finishPlacement(m, taskPU, tier, d)
}

func (r *refSched) finishPlacement(m *comm.Matrix, taskPU []int, tier topology.Kind, d int) (*placementResult, bool, error) {
	cores := make([]int, len(taskPU))
	for t, pu := range taskPU {
		core, ok := r.coreOfPU[pu]
		if !ok {
			return nil, false, fmt.Errorf("reference: task %d on unknown PU %d", t, pu)
		}
		cores[t] = core
	}
	sort.Ints(cores)
	nodes := map[int]bool{}
	for i, core := range cores {
		if i > 0 && core == cores[i-1] {
			return nil, false, fmt.Errorf("reference: core %d assigned twice", core)
		}
		nodes[r.nodeOf[core]] = true
	}
	commCycles := 0.0
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(k int, vol float64) {
			if k != i {
				commCycles += r.mach.TransferCost(taskPU[i], taskPU[k], vol)
			}
		})
	}
	return &placementResult{cores: cores, taskPU: append([]int(nil), taskPU...), comm: commCycles,
		tier: tierNames[tier], domain: d, nodes: len(nodes)}, false, nil
}

func (r *refSched) infeasible(spec JobSpec) string {
	if spec.Tasks > r.topo.NumCores() {
		return fmt.Sprintf("%d tasks exceed %d cores", spec.Tasks, r.topo.NumCores())
	}
	if r.opts.Policy == FirstFit {
		return ""
	}
	tiers, err := r.s.tierLadder(spec)
	if err != nil {
		return err.Error()
	}
	widest := tiers[len(tiers)-1]
	max := 0
	for _, dom := range r.domains[widest] {
		c := 0
		for _, n := range dom.Nodes {
			c += len(r.nodeCores[n])
		}
		if c > max {
			max = c
		}
	}
	if spec.Tasks > max {
		return fmt.Sprintf("%d tasks exceed the %d-core capacity of every %s domain", spec.Tasks, max, tierNames[widest])
	}
	return ""
}

// refLoop is the reference event loop; running stays sorted by (finish, seq).
type refLoop struct {
	r       *refSched
	rep     *Report
	queue   []*jobState
	running []departure
	clock   float64
	fragInt float64
	busy    float64
}

func (l *refLoop) push(d departure) {
	i := sort.Search(len(l.running), func(i int) bool {
		o := l.running[i]
		return o.finish > d.finish || (o.finish == d.finish && o.seq > d.seq)
	})
	l.running = append(l.running, departure{})
	copy(l.running[i+1:], l.running[i:])
	l.running[i] = d
}

func (l *refLoop) weight() float64 {
	total, max := 0, 0
	for n := range l.r.nodeCores {
		f := len(l.r.nodeFree(n))
		total += f
		if f > max {
			max = f
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(max)/float64(total)
}

func (l *refLoop) advance(t float64) {
	if t > l.clock {
		l.fragInt += l.weight() * (t - l.clock)
		l.clock = t
	}
}

func (l *refLoop) closeSegment(d *departure, at float64) {
	delta := at - d.lastStart
	d.stat.ServiceCycles += delta
	l.busy += float64(d.stat.Tasks) * delta
}

func (l *refLoop) dispatch(j *jobState, placed *placementResult, backfilled bool) error {
	if err := l.r.flip(placed.cores, false); err != nil {
		return err
	}
	svc, respawn := l.r.s.serviceOf(j, placed)
	st := j.stat
	if len(st.Segments) == 0 {
		st.StartCycles = l.clock
	}
	st.WaitCycles += l.clock - j.waitSince
	st.CommCycles = placed.comm
	st.FinishCycles = l.clock + svc
	st.Tier = placed.tier
	st.Domain = placed.domain
	st.Cores = placed.cores
	st.NodesSpanned = placed.nodes
	st.Segments = append(st.Segments, Segment{StartCycles: l.clock, FinishCycles: st.FinishCycles, Cores: placed.cores})
	if respawn > 0 {
		st.RespawnCycles += respawn
		l.rep.RespawnCycles += respawn
	}
	if backfilled {
		st.Backfilled = true
		l.rep.Backfills++
	}
	j.resume = nil
	l.push(departure{finish: st.FinishCycles, seq: j.seq, job: j, cores: placed.cores,
		taskPU: placed.taskPU, comm: placed.comm, service: svc, lastStart: l.clock, stat: st})
	return nil
}

func (l *refLoop) drain() error {
	for len(l.queue) > 0 {
		j := l.queue[0]
		placed, full, err := l.r.tryPlace(j)
		if err != nil {
			return err
		}
		if placed == nil {
			if full && j.spec.Required != "" && l.r.opts.Queue == QueueReject && j.resume == nil {
				j.stat.Rejected = true
				j.stat.RejectReason = "required tier full"
				l.rep.Rejected++
				l.queue = l.queue[1:]
				continue
			}
			moved, err := l.defragAttempt(j)
			if err != nil {
				return err
			}
			if moved {
				continue
			}
			opened, err := l.preemptAttempt(j)
			if err != nil {
				return err
			}
			if opened {
				continue
			}
			if l.r.opts.Backfill {
				return l.backfill(j)
			}
			return nil
		}
		if err := l.dispatch(j, placed, false); err != nil {
			return err
		}
		l.queue = l.queue[1:]
	}
	return nil
}

// earliestStart replays the sorted departures against fresh per-node counts.
func (l *refLoop) earliestStart(j *jobState) float64 {
	r := l.r
	freeN := make([]int, len(r.nodeCores))
	total := 0
	for n := range freeN {
		freeN[n] = len(r.nodeFree(n))
		total += freeN[n]
	}
	var domFree []int
	var of []int
	fits := func() bool { return total >= j.spec.Tasks }
	if r.opts.Policy != FirstFit {
		tiers, err := r.s.tierLadder(j.spec)
		if err != nil {
			return math.Inf(1)
		}
		tier := tiers[len(tiers)-1]
		of = r.domOf[tier]
		domFree = make([]int, len(r.domains[tier]))
		for n, f := range freeN {
			domFree[of[n]] += f
		}
		fits = func() bool {
			for _, f := range domFree {
				if f >= j.spec.Tasks {
					return true
				}
			}
			return false
		}
	}
	if fits() {
		return l.clock
	}
	for _, d := range l.running {
		for _, core := range d.cores {
			total++
			if domFree != nil {
				domFree[of[r.nodeOf[core]]]++
			}
		}
		if fits() {
			return d.finish
		}
	}
	return math.Inf(1)
}

// backfill probes every queued job with a full placement, then compares.
func (l *refLoop) backfill(head *jobState) error {
	window := l.earliestStart(head) - l.clock
	if window <= 0 {
		return nil
	}
	for i := 1; i < len(l.queue); {
		k := l.queue[i]
		placed, _, err := l.r.tryPlace(k)
		if err != nil {
			return err
		}
		if placed == nil {
			i++
			continue
		}
		if svc, _ := l.r.s.serviceOf(k, placed); svc > window {
			i++
			continue
		}
		if err := l.dispatch(k, placed, true); err != nil {
			return err
		}
		l.queue = append(l.queue[:i], l.queue[i+1:]...)
	}
	return nil
}

func (l *refLoop) preemptAttempt(head *jobState) (bool, error) {
	r := l.r
	if !r.opts.Preempt || r.opts.Policy == FirstFit {
		return false, nil
	}
	if head.spec.Required == "" || head.spec.Priority <= 0 {
		return false, nil
	}
	if r.freeTotal() < head.spec.Tasks {
		return false, nil
	}
	tiers, err := r.s.tierLadder(head.spec)
	if err != nil {
		return false, nil
	}
	tier := tiers[len(tiers)-1]
	var eligible []*departure
	for i := range l.running {
		d := &l.running[i]
		if d.job.spec.Required == "" && d.job.spec.Priority < head.spec.Priority {
			eligible = append(eligible, d)
		}
	}
	if len(eligible) == 0 {
		return false, nil
	}
	refPU := -1
	for n := range r.nodeCores {
		if free := r.nodeFree(n); len(free) > 0 {
			refPU = r.topo.Cores()[free[0]].Children[0].OSIndex
			break
		}
	}
	billOf := map[int]float64{}
	for _, v := range eligible {
		ws := workingSetBytes(v.job.spec)
		bill := 0.0
		for _, pu := range v.taskPU {
			bill += r.mach.CheckpointCostCycles(pu, ws)
			if refPU >= 0 {
				bill += r.mach.MigrationCostCycles(pu, refPU, ws)
			}
		}
		billOf[v.seq] = bill
	}
	sort.Slice(eligible, func(a, b int) bool {
		va, vb := eligible[a], eligible[b]
		if va.job.spec.Priority != vb.job.spec.Priority {
			return va.job.spec.Priority < vb.job.spec.Priority
		}
		ca := billOf[va.seq] / float64(len(va.cores))
		cb := billOf[vb.seq] / float64(len(vb.cores))
		if ca != cb {
			return ca < cb
		}
		return va.seq < vb.seq
	})
	var chosen []*departure
	bestDom := -1
	bestBill := math.Inf(1)
	for dom := range r.domains[tier] {
		need := head.spec.Tasks - r.domainFree(tier, dom)
		if need <= 0 {
			continue
		}
		var take []*departure
		bill := 0.0
		for _, v := range eligible {
			if need <= 0 {
				break
			}
			in := 0
			for _, core := range v.cores {
				if r.domOf[tier][r.nodeOf[core]] == dom {
					in++
				}
			}
			if in > 0 {
				take = append(take, v)
				need -= in
				bill += billOf[v.seq]
			}
		}
		if need > 0 {
			continue
		}
		if bestDom < 0 || bill < bestBill {
			bestDom, chosen, bestBill = dom, take, bill
		}
	}
	if bestDom < 0 {
		return false, nil
	}
	gain := l.earliestStart(head) - l.clock
	if gain <= 0 || gain <= bestBill {
		return false, nil
	}
	evicted := map[int]bool{}
	var requeue []*jobState
	for _, v := range chosen {
		evicted[v.seq] = true
		if err := r.flip(v.cores, true); err != nil {
			return false, err
		}
		l.closeSegment(v, l.clock)
		v.stat.Segments[len(v.stat.Segments)-1].FinishCycles = l.clock
		ckpt := 0.0
		ws := workingSetBytes(v.job.spec)
		for _, pu := range v.taskPU {
			ckpt += r.mach.CheckpointCostCycles(pu, ws)
		}
		remFrac := 0.0
		if v.service > 0 {
			remFrac = (v.finish - l.clock) / v.service
		}
		v.job.resume = &resumeState{remaining: v.finish - l.clock + ckpt, remFrac: remFrac,
			comm: v.comm, oldPUs: append([]int(nil), v.taskPU...)}
		v.job.waitSince = l.clock
		v.stat.Preemptions++
		l.rep.Preemptions++
		requeue = append(requeue, v.job)
	}
	var kept []departure
	for _, d := range l.running {
		if !evicted[d.seq] {
			kept = append(kept, d)
		}
	}
	l.running = kept
	rest := append([]*jobState(nil), l.queue[1:]...)
	l.queue = append(append([]*jobState{head}, requeue...), rest...)
	return true, nil
}

// defragAttempt probes every running job: release, place the head, place
// the candidate around it, undo.
func (l *refLoop) defragAttempt(head *jobState) (bool, error) {
	r := l.r
	if !r.opts.Defrag || r.opts.Policy == FirstFit {
		return false, nil
	}
	if l.weight() < r.opts.DefragThreshold {
		return false, nil
	}
	gain := l.earliestStart(head) - l.clock
	if gain <= 0 || math.IsInf(gain, 1) {
		return false, nil
	}
	best, bestBill := -1, 0.0
	var bestPlaced *placementResult
	for i := range l.running {
		v := &l.running[i]
		if err := r.flip(v.cores, true); err != nil {
			return false, err
		}
		headPlaced, _, errHead := r.tryPlace(head)
		var vPlaced *placementResult
		var errV error
		if errHead == nil && headPlaced != nil {
			if errV = r.flip(headPlaced.cores, false); errV == nil {
				vPlaced, _, errV = r.tryPlace(v.job)
				if err := r.flip(headPlaced.cores, true); err != nil {
					return false, err
				}
			}
		}
		if err := r.flip(v.cores, false); err != nil {
			return false, err
		}
		if errHead != nil {
			return false, errHead
		}
		if errV != nil {
			return false, errV
		}
		if headPlaced == nil || vPlaced == nil {
			continue
		}
		remFrac := 0.0
		if v.service > 0 {
			remFrac = (v.finish - l.clock) / v.service
		}
		bill := (vPlaced.comm - v.comm) * remFrac
		ws := workingSetBytes(v.job.spec)
		for t, old := range v.taskPU {
			bill += r.mach.MigrationCostCycles(old, vPlaced.taskPU[t], ws)
		}
		if bill >= gain {
			continue
		}
		if best < 0 || bill < bestBill || (bill == bestBill && v.seq < l.running[best].seq) {
			best, bestBill, bestPlaced = i, bill, vPlaced
		}
	}
	if best < 0 {
		return false, nil
	}
	v := l.running[best]
	l.running = append(l.running[:best], l.running[best+1:]...)
	if err := r.flip(v.cores, true); err != nil {
		return false, err
	}
	if err := r.flip(bestPlaced.cores, false); err != nil {
		return false, err
	}
	l.closeSegment(&v, l.clock)
	st := v.stat
	st.Segments[len(st.Segments)-1].FinishCycles = l.clock
	newFinish := v.finish + bestBill
	st.Segments = append(st.Segments, Segment{StartCycles: l.clock, FinishCycles: newFinish, Cores: bestPlaced.cores})
	st.CommCycles = bestPlaced.comm
	st.FinishCycles = newFinish
	st.Tier = bestPlaced.tier
	st.Domain = bestPlaced.domain
	st.Cores = bestPlaced.cores
	st.NodesSpanned = bestPlaced.nodes
	st.DefragMigrations++
	st.DefragCostCycles += bestBill
	l.rep.DefragMigrations++
	l.rep.DefragCostCycles += bestBill
	v.cores = bestPlaced.cores
	v.taskPU = bestPlaced.taskPU
	v.comm = bestPlaced.comm
	v.service += bestBill
	v.lastStart = l.clock
	v.finish = newFinish
	l.push(v)
	return true, nil
}

// run replays the stream exactly as Scheduler.Run documents it.
func (r *refSched) run(jobs []JobSpec) (*Report, error) {
	rep := &Report{Policy: r.opts.Policy.String(), Jobs: make([]JobStat, len(jobs))}
	order := make([]*jobState, len(jobs))
	for i, spec := range jobs {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		rep.Jobs[i] = JobStat{Name: spec.Name, Tasks: spec.Tasks, Priority: spec.Priority, ArriveCycles: spec.ArriveCycles}
		order[i] = &jobState{spec: spec, seq: i, stat: &rep.Jobs[i], waitSince: spec.ArriveCycles}
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].spec.ArriveCycles < order[b].spec.ArriveCycles })
	l := &refLoop{r: r, rep: rep}
	for next := 0; next < len(order) || len(l.running) > 0; {
		t := math.Inf(1)
		if next < len(order) {
			t = order[next].spec.ArriveCycles
		}
		if len(l.running) > 0 && l.running[0].finish < t {
			t = l.running[0].finish
		}
		l.advance(t)
		for len(l.running) > 0 && l.running[0].finish == l.clock {
			d := l.running[0]
			l.running = l.running[1:]
			if err := r.flip(d.cores, true); err != nil {
				return nil, err
			}
			l.closeSegment(&d, d.finish)
		}
		for next < len(order) && order[next].spec.ArriveCycles == l.clock {
			j := order[next]
			next++
			if reason := r.infeasible(j.spec); reason != "" {
				j.stat.Rejected = true
				j.stat.RejectReason = reason
				rep.Rejected++
				continue
			}
			l.queue = append(l.queue, j)
		}
		if err := l.drain(); err != nil {
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
		rep.BusyUtilization = l.busy / (float64(r.topo.NumCores()) * rep.MakespanCycles)
		rep.FragmentationAvg = l.fragInt / rep.MakespanCycles
	}
	return rep, nil
}

// diffAgainstReference runs the stream through Scheduler.Run and the
// reference and fails unless both agree: the same error state, the same
// Report to the last bit, and the capacity index restored and consistent.
func diffAgainstReference(t *testing.T, spec string, opts Options, jobs []JobSpec) {
	t.Helper()
	plat, err := numasim.NewPlatform(spec, numasim.Config{})
	if err != nil {
		t.Fatalf("platform %q: %v", spec, err)
	}
	mach := plat.Machine()
	s, err := New(mach, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := s.Capacity().Fingerprint()
	got, errGot := s.Run(jobs)
	want, errWant := newRefSched(mach, opts).run(jobs)
	if (errGot != nil) != (errWant != nil) {
		t.Fatalf("Run error %v, reference error %v", errGot, errWant)
	}
	if errGot != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		for i := range want.Jobs {
			if !reflect.DeepEqual(got.Jobs[i], want.Jobs[i]) {
				t.Fatalf("job %d differs from the reference:\n got  %+v\n want %+v", i, got.Jobs[i], want.Jobs[i])
			}
		}
		t.Fatalf("report differs from the reference:\n got  %+v\n want %+v", *got, *want)
	}
	if after := s.Capacity().Fingerprint(); after != before {
		t.Fatalf("capacity index not restored:\n before %s\n after  %s", before, after)
	}
	if err := s.Capacity().Validate(); err != nil {
		t.Fatal(err)
	}
}

// streamCase is one platform, option set and job stream a differential test
// replays.
type streamCase struct {
	name string
	spec string
	opts Options
	jobs func(t *testing.T) []JobSpec
}

// streamCases lists the A15 and A16 cells under their arms and both
// benchmark streams at one seed, named "a15/SHAPE/ARM/SEED",
// "a16/SHAPE/ARM/SEED", "sched-fifo/SEED" and "sched-phase2/SEED".
func streamCases(seed int64) []streamCase {
	stream := func(cfg StreamConfig, scramble int64) func(t *testing.T) []JobSpec {
		return func(t *testing.T) []JobSpec {
			jobs, err := GenerateStream(cfg)
			if err != nil {
				t.Fatalf("GenerateStream: %v", err)
			}
			// The phase-2 benchmark renumbers every stencil by its seed.
			for i := range jobs {
				if shape, n, ok := strings.Cut(jobs[i].Pattern, "@"); ok && scramble != 0 {
					v, _ := strconv.ParseInt(n, 10, 64)
					jobs[i].Pattern = fmt.Sprintf("%s@%d", shape, v+scramble)
				}
			}
			return jobs
		}
	}
	shapes := []string{"rack:2 node:4 pack:2 core:4 pu:1", "pod:2 rack:2 node:2 pack:2 core:4 pu:1"}
	a15 := StreamConfig{Jobs: 40, Seed: seed, Churn: 4, ConstraintFraction: 0.3, PreferredTier: "node", RequiredTier: "rack"}
	a16 := StreamConfig{Jobs: 48, Seed: seed, Sizes: []int{2, 3, 4, 6, 8, 12, 16}, Churn: 12, ConstraintFraction: 0.35,
		LongFraction: 0.2, LongFactor: 8, VolumeBytes: 4 << 10, PriorityClasses: 3,
		PreferredTier: "node", RequiredTier: "rack"}
	var cases []streamCase
	for _, shape := range shapes {
		for _, arm := range []struct {
			name string
			o    Options
		}{{"topo-aware", Options{Policy: TopoAware}}, {"topo-blind", Options{Policy: TopoBlind}}, {"first-fit", Options{Policy: FirstFit}}} {
			cases = append(cases, streamCase{fmt.Sprintf("a15/%s/%s/%d", shape, arm.name, seed), shape, arm.o, stream(a15, 0)})
		}
		for _, arm := range []struct {
			name string
			o    Options
		}{
			{"full", Options{Policy: TopoAware, Backfill: true, Preempt: true, Defrag: true}},
			{"backfill", Options{Policy: TopoAware, Backfill: true}},
			{"fifo", Options{Policy: TopoAware}},
		} {
			cases = append(cases, streamCase{fmt.Sprintf("a16/%s/%s/%d", shape, arm.name, seed), shape, arm.o, stream(a16, 0)})
		}
	}
	fifo := StreamConfig{Jobs: 800, Seed: seed, Churn: 4, ConstraintFraction: 0.3, PreferredTier: "node", RequiredTier: "rack"}
	cases = append(cases, streamCase{fmt.Sprintf("sched-fifo/%d", seed), shapes[0], Options{Policy: TopoAware}, stream(fifo, 0)})
	phase2 := a16
	phase2.Jobs, phase2.Seed = 80, 1
	return append(cases, streamCase{fmt.Sprintf("sched-phase2/%d", seed), shapes[1],
		Options{Policy: TopoAware, Backfill: true, Preempt: true, Defrag: true}, stream(phase2, seed-1)})
}

// TestSchedulerMatchesReference runs the A15 and A16 streams under their
// arms, both benchmark streams, every invariant case, and a backfill window
// a candidate's service meets exactly, through both schedulers at seeds 1
// and 42.
func TestSchedulerMatchesReference(t *testing.T) {
	cases := append(streamCases(1), streamCases(42)...)
	for _, ic := range invariantCases() {
		ic := ic
		cases = append(cases, streamCase{fmt.Sprintf("invariant/%s/%d", ic.name, ic.seed), ic.spec, ic.opts,
			func(t *testing.T) []JobSpec { return invariantStream(t, ic.seed) }})
	}
	// A one-task candidate (no edges, so no comm) whose work equals the
	// head's window to the cycle: its service does not exceed the window,
	// so it backfills.
	cases = append(cases, streamCase{"backfill-window-edge", "rack:1 node:1 pack:1 core:2 pu:1", Options{Policy: TopoAware, Backfill: true},
		func(*testing.T) []JobSpec {
			return []JobSpec{
				{Name: "long", ArriveCycles: 0, WorkCycles: 2e6, Tasks: 1},
				{Name: "head", ArriveCycles: 100, WorkCycles: 1e6, Tasks: 2},
				{Name: "edge", ArriveCycles: 100, WorkCycles: 2e6 - 100, Tasks: 1},
			}
		}})
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			diffAgainstReference(t, c.spec, c.opts, c.jobs(t))
		})
	}
}

// FuzzSchedulerRun decodes a small platform, the scheduler options and a job
// stream from the input and runs both schedulers on it.
func FuzzSchedulerRun(f *testing.F) {
	f.Add([]byte{0x15, 0xe0, 0, 9, 3, 0x41, 0x21, 0, 200, 5, 0x02, 0x12, 1, 4, 7, 0x13, 0x6a, 2, 1, 1, 0x00, 0x80})
	f.Add([]byte{0x2a, 0x70, 0, 40, 7, 0x10, 0xc2, 0, 3, 2, 0x05, 0x41, 3, 0, 11, 0x22, 0xe3, 0, 60, 1, 0x01, 0x00})
	f.Add([]byte{0x09, 0x31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0x3f, 0xff, 5, 255, 15, 0xff, 0xff, 0, 1, 1, 0x00, 0x00, 0, 254, 2, 0x33, 0x7f})
	// phase2Stream's split racks: two background pairs, then a four-task
	// rack-required priority-2 head, under preemption, defrag and the full
	// stack.
	split := []byte{0, 255, 1, 18, 0, 1, 255, 1, 18, 2, 1, 100, 3, 18, 147}
	for _, bits := range []byte{0x24, 0x54, 0xfc} {
		f.Add(append([]byte{0x0d, bits}, split...))
	}
	// A head blocked one free core short of its task count, and one blocked
	// with exactly its task count free (intervene's free-total gate).
	for _, c := range gateBoundaryCases {
		f.Add(c.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, opts, jobs, ok := decodeFuzzRun(data); ok {
			diffAgainstReference(t, spec, opts, jobs)
		}
	})
}

// decodeFuzzRun decodes FuzzSchedulerRun's input: a platform shape byte, an
// option byte, then five bytes per job (at most 24 jobs). ok is false when
// the input is too short to name a platform.
func decodeFuzzRun(data []byte) (spec string, opts Options, jobs []JobSpec, ok bool) {
	if len(data) < 2 {
		return "", Options{}, nil, false
	}
	shape, bits := data[0], data[1]
	pods, racks := 1+int(shape>>5)%2, 1+int(shape>>3)%2
	nodes, cores := 1+int(shape>>1)%3, 2+int(shape)%2*2
	spec = fmt.Sprintf("rack:%d node:%d pack:1 core:%d pu:1", racks, nodes, cores)
	if pods > 1 {
		spec = fmt.Sprintf("pod:%d %s", pods, spec)
	}
	total := pods * racks * nodes * cores
	opts = Options{
		Policy:   Policy(int(bits) % 3),
		Fit:      Fit(bits >> 2 & 1),
		Queue:    QueuePolicy(bits >> 3 & 1),
		Backfill: bits&0x10 != 0, Preempt: bits&0x20 != 0, Defrag: bits&0x40 != 0,
	}
	if bits&0x80 != 0 {
		opts.DefragThreshold = 0.3
	}
	tiers := []string{"", "node", "rack", "pod", "machine"}
	arrive := 0.0
	for i, rec := 0, data[2:]; len(rec) >= 5 && i < 24; i, rec = i+1, rec[5:] {
		// Arrivals and work sit on a 1e4-cycle grid so that windows
		// and services can meet exactly.
		arrive += float64(rec[0]%8) * 1e4
		tasks := 1 + int(rec[2])%min(total, 12)
		j := JobSpec{
			Name: fmt.Sprintf("j%02d", i), ArriveCycles: arrive, WorkCycles: float64(rec[1]) * 1e4, Tasks: tasks,
			VolumeBytes: float64(rec[3]>>2) * 256, Priority: int(rec[4]>>6) % 3,
			Required: tiers[int(rec[4])%5], Preferred: tiers[int(rec[4]>>3)%3],
		}
		switch rec[3] % 3 {
		case 1:
			j.Pattern = fmt.Sprintf("stencil:%dx1@%d", tasks, rec[0])
		case 2:
			j.Pattern = fmt.Sprintf("random:%d@%d", 1+int(rec[2]>>4)%tasks, rec[1])
		}
		if j.Validate() != nil {
			j.Preferred = ""
		}
		jobs = append(jobs, j)
	}
	return spec, opts, jobs, true
}
