package sched

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the phase-2 scheduler policies — conservative backfill,
// priority preemption, and hysteresis-gated defragmentation. All three hang
// off the same primitive: tryPlace is side-effect-free, so the policies can
// probe hypothetical placements against temporarily mutated capacity, price
// the outcome on the machine model (numasim.MigrationCostCycles /
// CheckpointCostCycles plus the comm delta of a re-layout), and only commit
// when the priced gain beats the bill.

// resumeState is the checkpoint of a preempted job awaiting restart.
type resumeState struct {
	// remaining is the service still owed, including the checkpoint write
	// that was charged at eviction.
	remaining float64
	// remFrac is the fraction of the evicted dispatch's service that was
	// outstanding — it scales the comm re-pricing of the new layout.
	remFrac float64
	// comm is the full-matrix comm cost of the evicted layout; oldPUs the
	// task→PU binding the respawn pulls its images from.
	comm   float64
	oldPUs []int
}

// workingSetBytes models the per-task checkpoint image: the task's block
// plus its halo buffers — four stencil edges of the job's per-edge volume.
func workingSetBytes(spec JobSpec) float64 { return 4 * spec.VolumeBytes }

// earliestStart computes when the blocked job j could start at the latest —
// assuming nothing new arrives — by walking the departure horizon: replay
// the running set's departures in (finish, seq) order against a snapshot of
// the per-node free counts and return the first finish time at which some
// allowed domain has enough free slots. For every policy a domain-count fit
// implies tryPlace succeeds, so this bound is exact, and it is the anchor of
// both the backfill window and the preemption/defrag gain.
func (r *runLoop) earliestStart(j *jobState) float64 {
	s := r.s
	freeN := s.cap.nodeFreeCounts()
	total := 0
	for _, f := range freeN {
		total += f
	}
	var (
		domFree []int
		domOf   func(n int) int
	)
	fits := func() bool { return total >= j.spec.Tasks }
	if s.opts.Policy != FirstFit {
		tiers, err := s.tierLadder(j.spec)
		if err != nil {
			return math.Inf(1)
		}
		// The ladder's tiers nest, so fitting any allowed tier is
		// equivalent to fitting the widest one.
		tier := tiers[len(tiers)-1]
		domFree = make([]int, len(s.cap.Domains(tier)))
		for n, f := range freeN {
			domFree[s.cap.DomainOfNode(tier, n)] += f
		}
		domOf = func(n int) int { return s.cap.DomainOfNode(tier, n) }
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
		return r.clock
	}
	horizon := append(departureHeap(nil), r.running...)
	sort.Sort(horizon)
	for _, d := range horizon {
		for _, core := range d.cores {
			n := s.cap.NodeOf(core)
			freeN[n]++
			total++
			if domFree != nil {
				domFree[domOf(n)]++
			}
		}
		if fits() {
			return d.finish
		}
	}
	return math.Inf(1)
}

// backfill dispatches queued jobs past the blocked head when their whole
// modeled service fits inside the head's earliest-feasible-start window:
// every backfilled job returns its slots before the head could possibly
// start, so the head is never delayed (conservative backfill). The window
// is computed once against the pre-backfill running set; backfilled jobs
// only ever return capacity earlier, so it stays a valid lower bound.
func (r *runLoop) backfill(head *jobState) error {
	window := r.earliestStart(head) - r.clock
	if window <= 0 {
		return nil
	}
	for i := 1; i < len(r.queue); {
		k := r.queue[i]
		// A fresh job's service is its work plus a sum of transfer costs,
		// each ≥ 0, and rounding is monotone: work alone past the window
		// settles it without a placement.
		if k.resume == nil && k.spec.WorkCycles > window {
			i++
			continue
		}
		placed, _, err := r.s.tryPlace(k)
		if err != nil {
			return err
		}
		if placed == nil {
			i++
			continue
		}
		if svc, _ := r.s.serviceOf(k, placed); svc > window {
			i++
			continue
		}
		if err := r.dispatch(k, placed, true); err != nil {
			return err
		}
		r.queue = append(r.queue[:i], r.queue[i+1:]...)
	}
	return nil
}

// preemptAttempt opens the blocked head's required domain by checkpointing
// and requeueing strictly-lower-priority unconstrained jobs, when:
//
//   - the head is required-constrained, has priority > 0, and no allowed
//     domain fits it (tryPlace already failed);
//   - the machine holds enough total free slots for the head, so every
//     victim can re-place immediately after the head binds — eviction
//     trades the head's long wait for the victims' migration bills, never
//     for a second queue stall (intervene's free-total gate checks this
//     before either attempt runs);
//   - the head's modeled wait saving (its earliest feasible start without
//     intervention) exceeds the victims' estimated checkpoint/respawn bill.
//
// Victims are chosen deterministically (priority ascending, then bill per
// freed core, then sequence) per domain, and the cheapest-bill domain wins.
func (r *runLoop) preemptAttempt(head *jobState) (bool, error) {
	s := r.s
	if !s.opts.Preempt || s.opts.Policy == FirstFit {
		return false, nil
	}
	if head.spec.Required == "" || head.spec.Priority <= 0 {
		return false, nil
	}
	tiers, err := s.tierLadder(head.spec)
	if err != nil {
		return false, nil
	}
	tier := tiers[len(tiers)-1] // the required boundary

	// Candidate victims in deterministic eviction order.
	var eligible []*departure
	for i := range r.running {
		d := &r.running[i]
		if d.job.spec.Required == "" && d.job.spec.Priority < head.spec.Priority {
			eligible = append(eligible, d)
		}
	}
	if len(eligible) == 0 {
		return false, nil
	}
	// Estimate each candidate's eviction bill up front: its checkpoint
	// write plus the respawn pull onto a reference free slot (the exact
	// destination is chosen at restart; any free slot prices the same
	// order of magnitude). Victims are then taken cheapest-per-freed-core
	// first within the lowest priority class, so a small low-priority job
	// is evicted before a wide one.
	refPU := -1
	for _, slots := range s.cap.free {
		if len(slots) > 0 {
			refPU = s.topo.Cores()[slots[0]].Children[0].OSIndex
			break
		}
	}
	billOf := make(map[int]float64, len(eligible))
	for _, v := range eligible {
		ws := workingSetBytes(v.job.spec)
		bill := 0.0
		for _, pu := range v.taskPU {
			bill += s.mach.CheckpointCostCycles(pu, ws)
			if refPU >= 0 {
				bill += s.mach.MigrationCostCycles(pu, refPU, ws)
			}
		}
		billOf[v.seq] = bill
	}
	sort.Slice(eligible, func(i, j int) bool {
		vi, vj := eligible[i], eligible[j]
		if vi.job.spec.Priority != vj.job.spec.Priority {
			return vi.job.spec.Priority < vj.job.spec.Priority
		}
		ci := billOf[vi.seq] / float64(len(vi.cores))
		cj := billOf[vj.seq] / float64(len(vj.cores))
		if ci != cj {
			return ci < cj
		}
		return vi.seq < vj.seq
	})

	coresIn := func(d *departure, dom int) int {
		n := 0
		for _, core := range d.cores {
			if s.cap.DomainOfNode(tier, s.cap.NodeOf(core)) == dom {
				n++
			}
		}
		return n
	}
	var chosen []*departure
	bestDom := -1
	bestBill := math.Inf(1)
	for dom := range s.cap.Domains(tier) {
		need := head.spec.Tasks - s.cap.DomainFree(tier, dom)
		if need <= 0 {
			continue // tryPlace would have taken it; stale head, bail
		}
		var take []*departure
		bill := 0.0
		for _, v := range eligible {
			if need <= 0 {
				break
			}
			if in := coresIn(v, dom); in > 0 {
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

	// Price the intervention: gain is the wait the head would otherwise
	// serve; the bill is the chosen victims' checkpoint/respawn estimate.
	gain := r.earliestStart(head) - r.clock
	if gain <= 0 {
		return false, nil
	}
	bill := bestBill
	if gain <= bill {
		return false, nil
	}

	// Commit: evict every chosen victim — close its segment, charge the
	// checkpoint write into its outstanding remainder, and requeue it
	// right behind the head so it restarts as soon as the head binds.
	evicted := map[int]bool{}
	requeue := make([]*jobState, 0, len(chosen))
	for _, v := range chosen {
		evicted[v.seq] = true
		if err := s.cap.Release(v.cores); err != nil {
			return false, fmt.Errorf("sched: preempt release %s: %w", v.stat.Name, err)
		}
		r.closeSegment(v, r.clock)
		v.stat.Segments[len(v.stat.Segments)-1].FinishCycles = r.clock
		ckpt := 0.0
		ws := workingSetBytes(v.job.spec)
		for _, pu := range v.taskPU {
			ckpt += s.mach.CheckpointCostCycles(pu, ws)
		}
		remFrac := 0.0
		if v.service > 0 {
			remFrac = (v.finish - r.clock) / v.service
		}
		v.job.resume = &resumeState{
			remaining: v.finish - r.clock + ckpt,
			remFrac:   remFrac,
			comm:      v.comm,
			oldPUs:    append([]int(nil), v.taskPU...),
		}
		v.job.waitSince = r.clock
		v.stat.Preemptions++
		r.rep.Preemptions++
		requeue = append(requeue, v.job)
	}
	kept := r.running[:0]
	for _, d := range r.running {
		if !evicted[d.seq] {
			kept = append(kept, d)
		}
	}
	r.running = kept
	r.running.init()
	rest := append([]*jobState(nil), r.queue[1:]...)
	r.queue = append(append([]*jobState{head}, requeue...), rest...)
	return true, nil
}

// defragAttempt compacts capacity for a blocked head by migrating one
// running job: hypothetically release a candidate, check the head then fits,
// re-place the candidate on what remains (honoring its own constraints), and
// commit the cheapest such move — charged at the migration bill (per-task
// MigrationCostCycles plus the comm delta of the new layout on the
// outstanding fraction) — only when the head's wait saving exceeds it. This
// is the adaptive engine's hysteresis pattern applied across jobs; at most
// one migration per drain attempt keeps the churn bounded.
func (r *runLoop) defragAttempt(head *jobState) (bool, error) {
	s := r.s
	if !s.opts.Defrag || s.opts.Policy == FirstFit {
		return false, nil
	}
	if r.weight() < s.opts.DefragThreshold {
		return false, nil
	}
	gain := r.earliestStart(head) - r.clock
	if gain <= 0 || math.IsInf(gain, 1) {
		return false, nil
	}
	type plan struct {
		idx    int
		placed *placementResult
		bill   float64
	}
	var best *plan
	// The head places after v's release exactly when some domain of its
	// widest tier count-fits it then (the tiers nest, as in earliestStart),
	// so v is counted back into each domain before anything is released.
	tiers, _ := s.tierLadder(head.spec) // earliestStart already resolved it
	tier := tiers[len(tiers)-1]
	extra := make([]int, len(s.cap.Domains(tier)))
	for i := range r.running {
		v := &r.running[i]
		for _, core := range v.cores {
			extra[s.cap.DomainOfNode(tier, s.cap.NodeOf(core))]++
		}
		fits := false
		for d, e := range extra {
			fits = fits || s.cap.DomainFree(tier, d)+e >= head.spec.Tasks
			extra[d] = 0
		}
		if !fits {
			continue
		}
		if err := s.cap.Release(v.cores); err != nil {
			return false, fmt.Errorf("sched: defrag probe release %s: %w", v.stat.Name, err)
		}
		headPlaced, _, errHead := s.tryPlace(head)
		var vPlaced *placementResult
		var errV error
		if errHead == nil && headPlaced != nil {
			if errV = s.cap.Bind(headPlaced.cores); errV == nil {
				vPlaced, _, errV = s.tryPlace(v.job)
				if err := s.cap.Release(headPlaced.cores); err != nil {
					return false, fmt.Errorf("sched: defrag probe unbind head: %w", err)
				}
			}
		}
		if err := s.cap.Bind(v.cores); err != nil {
			return false, fmt.Errorf("sched: defrag probe rebind %s: %w", v.stat.Name, err)
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
			remFrac = (v.finish - r.clock) / v.service
		}
		bill := (vPlaced.comm - v.comm) * remFrac
		ws := workingSetBytes(v.job.spec)
		for t, old := range v.taskPU {
			bill += s.mach.MigrationCostCycles(old, vPlaced.taskPU[t], ws)
		}
		if bill >= gain {
			continue
		}
		if best == nil || bill < best.bill || (bill == best.bill && v.seq < r.running[best.idx].seq) {
			best = &plan{idx: i, placed: vPlaced, bill: bill}
		}
	}
	if best == nil {
		return false, nil
	}

	// Commit the move: the migrated job keeps running on its new cores
	// with its finish pushed by the bill; the head's slots are now free
	// and the caller's retry will bind them.
	v := &r.running[best.idx]
	if err := s.cap.Release(v.cores); err != nil {
		return false, fmt.Errorf("sched: defrag release %s: %w", v.stat.Name, err)
	}
	if err := s.cap.Bind(best.placed.cores); err != nil {
		return false, fmt.Errorf("sched: defrag bind %s: %w", v.stat.Name, err)
	}
	r.closeSegment(v, r.clock)
	st := v.stat
	st.Segments[len(st.Segments)-1].FinishCycles = r.clock
	newFinish := v.finish + best.bill
	st.Segments = append(st.Segments, Segment{StartCycles: r.clock, FinishCycles: newFinish, Cores: best.placed.cores})
	st.CommCycles = best.placed.comm
	st.FinishCycles = newFinish
	st.Tier = best.placed.tier
	st.Domain = best.placed.domain
	st.Cores = best.placed.cores
	st.NodesSpanned = best.placed.nodes
	st.DefragMigrations++
	st.DefragCostCycles += best.bill
	r.rep.DefragMigrations++
	r.rep.DefragCostCycles += best.bill
	v.cores = best.placed.cores
	v.taskPU = best.placed.taskPU
	v.comm = best.placed.comm
	v.service += best.bill
	v.lastStart = r.clock
	v.finish = newFinish
	r.running.fix(best.idx)
	return true, nil
}
