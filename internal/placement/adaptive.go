package placement

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
)

// FaultMode selects how the adaptive engine reacts to scheduled faults
// (AdaptiveOptions.Faults). All modes evacuate a dead node's tasks — there
// is no choice about that — but they differ in where the evacuees land and
// whether the engine keeps adapting afterwards.
type FaultMode int

const (
	// FaultAware (the zero value) places evacuees on the surviving node with
	// the cheapest modeled traffic to their live partners under the degraded
	// fabric, and keeps running the candidate loop, which now prices the
	// degraded fabric too.
	FaultAware FaultMode = iota
	// FaultBlind evacuates onto surviving capacity in node-index order —
	// first fit, no affinity — and keeps adapting, but its candidates price
	// with the same blind evacuation matcher.
	FaultBlind
	// FaultRespawn is the static-with-respawn baseline: evacuees are dealt
	// round-robin across the surviving nodes and the engine never runs the
	// candidate loop at all — forced evacuations are its only intervention.
	FaultRespawn
)

// AdaptiveOptions configures the epoch-based adaptive re-placement engine.
type AdaptiveOptions struct {
	// Base computes the initial mapping from the statically extracted
	// affinity matrix, exactly like Place. Defaults to TreeMatch{}.
	Base Policy
	// Candidate computes the per-epoch candidate mapping from the windowed
	// measured matrix. Defaults to Base, but the two may differ: on a
	// clustered platform, Hierarchical candidates re-run the full fabric
	// path (node partition, fabric-tree matching) on the observed window,
	// where flat TreeMatch candidates only re-group bottom-up — the A12
	// ablation isolates exactly that difference.
	Candidate Policy
	// EpochIters is the number of iterations between re-placement
	// decisions. Required (>= 1).
	EpochIters int
	// FreeMigration applies every strictly improving candidate without
	// charging migration: the oracle configuration, an upper bound on what
	// adaptivity could gain. Never use it to report real results.
	FreeMigration bool
	// Faults schedules platform failures by 1-based epoch index: at each
	// matching epoch boundary the engine installs the events into the
	// machine's pricing (numasim.Machine.ApplyFaultEvents) and forcibly
	// evacuates every live task parked on a dead node before the ordinary
	// candidate flow runs. Nil — the default — changes nothing: no schedule
	// is installed and every existing path prices and decides bit-identically.
	Faults *topology.FaultSchedule
	// FaultMode selects the evacuation strategy and whether the engine keeps
	// adapting after a fault; the zero value is FaultAware.
	FaultMode FaultMode
}

// AdaptiveStats summarizes what the engine did over a run.
type AdaptiveStats struct {
	// Epochs is the number of re-placement decisions taken.
	Epochs int
	// Applied counts epochs whose candidate mapping was committed; Skipped
	// counts epochs where hysteresis (or a non-improving candidate) kept
	// the current mapping.
	Applied, Skipped int
	// Rebinds is the total number of task migrations committed.
	Rebinds int
	// IntraNodeRebinds counts the committed moves that stayed inside one
	// cluster node (every move, on a single machine); CrossNodeRebinds the
	// moves that crossed a cluster-node boundary and therefore dragged the
	// task's working set over the fabric; CrossRackRebinds the subset of
	// those that additionally crossed a rack (or pod) boundary and paid the
	// uplink path. Rebinds = IntraNodeRebinds + CrossNodeRebinds.
	IntraNodeRebinds, CrossNodeRebinds, CrossRackRebinds int
	// PredictedGainCycles and MigrationCostCycles accumulate the model's
	// side of every applied decision, for reporting.
	PredictedGainCycles float64
	// MigrationCostCycles is the total modeled price of the applied moves.
	MigrationCostCycles float64
	// FaultEpochs counts the epochs at which scheduled faults struck.
	FaultEpochs int
	// Evacuations counts the forced moves off dead nodes. They are included
	// in Rebinds and the move-class split, and they bypass hysteresis — a
	// dead node leaves no choice — so they are charged even in oracle
	// (FreeMigration) runs.
	Evacuations int
	// EvacuationCostCycles is the total modeled price of the evacuations.
	EvacuationCostCycles float64
}

// AdaptiveEngine is the feedback loop around a base placement policy: at
// every epoch boundary it recomputes a candidate mapping from the observed
// communication window and commits it only when the predicted gain clears
// the modeled migration cost. Create it with PlaceAdaptive.
type AdaptiveEngine struct {
	opts AdaptiveOptions
	rt   *orwl.Runtime
	mach *numasim.Machine

	// current mirrors the mapping actually in force, task ID → PU.
	current    []int
	currentCtl []int
	// migrateBytes[id] is the working set a task drags along when it moves:
	// the locations it writes (its data is homed next to it).
	migrateBytes []float64

	mu    sync.Mutex
	stats AdaptiveStats
	errs  []error
}

// PlaceAdaptive runs the full adaptive pipeline on an ORWL program: the
// base policy places the tasks from the statically extracted affinity
// matrix exactly like Place, which declares the contention of the heavy
// tasks, and the runtime is configured so that every opts.EpochIters
// iterations the engine re-decides the placement from the measured
// communication window. Call before rt.Run; inspect the engine (Stats, Err,
// Assignment) after the run returns.
func PlaceAdaptive(rt *orwl.Runtime, opts AdaptiveOptions, heavy []bool) (*AdaptiveEngine, error) {
	if rt.Machine() == nil {
		return nil, fmt.Errorf("placement: adaptive placement requires a machine")
	}
	if opts.EpochIters < 1 {
		return nil, fmt.Errorf("placement: adaptive EpochIters %d must be at least 1", opts.EpochIters)
	}
	if opts.FaultMode < FaultAware || opts.FaultMode > FaultRespawn {
		return nil, fmt.Errorf("placement: unknown FaultMode %d", opts.FaultMode)
	}
	if opts.Faults != nil {
		if err := opts.Faults.Validate(rt.Machine().Topology()); err != nil {
			return nil, fmt.Errorf("placement: adaptive fault schedule: %w", err)
		}
	}
	if opts.Base == nil {
		opts.Base = TreeMatch{}
	}
	if opts.Candidate == nil {
		opts.Candidate = opts.Base
	}
	a, err := Place(rt, opts.Base, heavy)
	if err != nil {
		return nil, err
	}
	e := &AdaptiveEngine{
		opts:       opts,
		rt:         rt,
		mach:       rt.Machine(),
		current:    append([]int(nil), a.TaskPU...),
		currentCtl: append([]int(nil), a.ControlPU...),
	}
	e.migrateBytes = make([]float64, len(e.current))
	for _, t := range rt.Tasks() {
		for _, h := range t.Handles() {
			if h.Mode() == orwl.Write {
				e.migrateBytes[t.ID()] += float64(h.Location().Size())
			}
		}
	}
	if err := rt.ConfigureEpochs(opts.EpochIters, e.onEpoch); err != nil {
		return nil, err
	}
	return e, nil
}

// onEpoch is the re-placement decision, run while the runtime is quiesced.
func (e *AdaptiveEngine) onEpoch(ep *orwl.Epoch) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Epochs++
	if e.opts.Faults != nil {
		if events := e.opts.Faults.EventsAt(ep.Index()); len(events) > 0 {
			e.onFault(ep, events)
		}
	}
	if e.opts.FaultMode == FaultRespawn {
		// Static-with-respawn never adapts: the forced evacuations in
		// onFault are its only interventions.
		e.stats.Skipped++
		return
	}
	w := ep.Window()
	if w.TotalVolume() == 0 {
		e.stats.Skipped++
		return
	}
	cand, err := e.opts.Candidate.Assign(e.mach, w)
	if err != nil {
		e.errs = append(e.errs, fmt.Errorf("epoch %d: %w", ep.Index(), err))
		e.stats.Skipped++
		return
	}
	// Only the tasks parked at the barrier can move; a finished task's slot
	// neither costs a migration nor changes, so the candidate keeps its
	// current PU there (otherwise phantom moves of dead tasks would inflate
	// the hysteresis threshold and block profitable live moves).
	live := ep.Tasks()
	isLive := make([]bool, len(cand.TaskPU))
	for _, t := range live {
		isLive[t.ID()] = true
	}
	for id := range cand.TaskPU {
		if !isLive[id] {
			cand.TaskPU[id] = e.current[id]
		}
	}
	// Candidate policies place onto the full platform — they know nothing
	// about failures — so rewrite any slot landing on a dead node onto
	// surviving capacity before the candidate is anchored or priced: an
	// unreachable endpoint prices to +Inf and would wedge the gain
	// comparison. A no-op until a kill event has struck.
	e.patchDeadSlots(cand, live, w)
	e.anchorCandidate(cand, w, isLive)
	gain := MappingCost(e.mach, w, e.current) - MappingCost(e.mach, w, cand.TaskPU)
	var migCost float64
	for id, pu := range cand.TaskPU {
		// An unbound candidate slot (pu < 0) is never applied — the apply
		// loop below skips it with the same guard — so it costs nothing
		// here either; pricing it would index the PU tables with -1.
		if pu >= 0 && pu != e.current[id] {
			migCost += e.mach.MigrationCostCycles(e.current[id], pu, e.migrateBytes[id])
		}
		// Control-thread rebinds are applied below, so they must be priced
		// here too: a control thread carries no working set, but the OS
		// still pays the migration penalty to move it. Summing only the
		// computation-thread moves underpriced candidates that shuffle many
		// control threads.
		if isLive[id] && cand.ControlPU[id] != e.currentCtl[id] {
			migCost += e.mach.Config().MigrationPenaltyCycles
		}
	}
	// The candidate must recoup the migration bill (penalty + region
	// re-homing pulls) within one epoch.
	threshold := migCost
	if e.opts.FreeMigration {
		threshold = 0
	}
	if gain <= threshold {
		e.stats.Skipped++
		return
	}
	// Delta-apply: only the tasks whose slot changed move; everyone else
	// keeps its warm caches and local data.
	for _, t := range live {
		id := t.ID()
		if pu := cand.TaskPU[id]; pu >= 0 && pu != e.current[id] {
			from := e.current[id]
			var err error
			if e.opts.FreeMigration {
				err = ep.RebindFree(t, pu)
			} else {
				err = ep.Rebind(t, pu)
			}
			if err != nil {
				e.errs = append(e.errs, fmt.Errorf("epoch %d: rebind %s: %w", ep.Index(), t, err))
				continue
			}
			e.current[id] = pu
			e.stats.Rebinds++
			// Classify the move by the fabric levels it crossed: an
			// intra-node move re-homes through shared memory, a cross-node
			// move drags the working set over the NIC links, and a
			// cross-rack (or cross-pod) move additionally pays the uplink
			// path — the distinction the fabric-priced hysteresis weighed.
			e.classifyMove(from, pu)
		}
		if ctl := cand.ControlPU[id]; ctl != e.currentCtl[id] {
			if err := ep.RebindControl(t, ctl); err != nil {
				e.errs = append(e.errs, fmt.Errorf("epoch %d: rebind control %s: %w", ep.Index(), t, err))
				continue
			}
			e.currentCtl[id] = ctl
		}
	}
	e.stats.Applied++
	e.stats.PredictedGainCycles += gain
	e.stats.MigrationCostCycles += migCost
	// The committed mapping changed where the crossing streams run, so the
	// per-link fabric contention declared before the run is stale: re-derive
	// it from the new layout and the traffic the engine just acted on. The
	// per-NUMA-node accessor side (SetContention) needs no refresh — it
	// charges the machine-wide average pressure, which depends only on the
	// heavy-task and unbound counts, both unchanged by re-binding bound
	// tasks. A no-op on single-machine topologies, which keeps the A8
	// results bit-stable.
	SetFabricContention(e.mach, e.assignmentLocked(), w)
}

// classifyMove counts one committed move in the fabric-level split. A
// previously unbound task (from < 0, e.g. a NoBind base) counts as leaving
// cluster node 0, matching how MigrationCostCycles prices that move (a
// node-0 pull).
func (e *AdaptiveEngine) classifyMove(from, to int) {
	fromC := 0
	if from >= 0 {
		fromC = e.mach.ClusterNodeOfPU(from)
	}
	switch toC := e.mach.ClusterNodeOfPU(to); {
	case fromC == toC:
		e.stats.IntraNodeRebinds++
	case e.mach.SameRack(fromC, toC):
		e.stats.CrossNodeRebinds++
	default:
		e.stats.CrossNodeRebinds++
		e.stats.CrossRackRebinds++
	}
}

// windowOrMatrix returns the epoch's observed window, falling back to the
// statically extracted matrix when nothing has been observed yet — a fault
// at the very first epoch still needs affinities to steer the evacuation.
func (e *AdaptiveEngine) windowOrMatrix(ep *orwl.Epoch) *comm.Matrix {
	if w := ep.Window(); w.TotalVolume() > 0 {
		return w
	}
	return e.rt.CommMatrix()
}

// onFault installs one epoch's fault events into the machine's pricing and
// forcibly evacuates every live task parked on a node that just died. The
// evacuation bypasses hysteresis — a dead node leaves no choice — and is
// charged even under FreeMigration. Runs while the runtime is quiesced (the
// epoch barrier), which is what licenses writing the machine's fault state.
func (e *AdaptiveEngine) onFault(ep *orwl.Epoch, events []topology.FaultEvent) {
	e.stats.FaultEpochs++
	if err := e.mach.ApplyFaultEvents(events); err != nil {
		e.errs = append(e.errs, fmt.Errorf("epoch %d: fault: %w", ep.Index(), err))
		return
	}
	live := ep.Tasks()
	var evac []*orwl.Task
	for _, t := range live {
		if pu := e.current[t.ID()]; pu >= 0 && e.mach.ClusterNodeDead(e.mach.ClusterNodeOfPU(pu)) {
			evac = append(evac, t)
		}
	}
	if len(evac) > 0 {
		w := e.windowOrMatrix(ep)
		ids := make([]int, len(evac))
		for i, t := range evac {
			ids[i] = t.ID()
		}
		targets, err := e.survivorSlots(ids, e.current, live, w)
		if err != nil {
			e.errs = append(e.errs, fmt.Errorf("epoch %d: evacuate: %w", ep.Index(), err))
			return
		}
		for i, t := range evac {
			id, pu := ids[i], targets[i]
			from := e.current[id]
			cost := e.mach.MigrationCostCycles(from, pu, e.migrateBytes[id])
			if err := ep.Rebind(t, pu); err != nil {
				e.errs = append(e.errs, fmt.Errorf("epoch %d: evacuate %s: %w", ep.Index(), t, err))
				continue
			}
			e.current[id] = pu
			e.stats.Rebinds++
			e.stats.Evacuations++
			e.stats.EvacuationCostCycles += cost
			e.stats.MigrationCostCycles += cost
			e.classifyMove(from, pu)
			// The control thread follows its task off the dead node: onto the
			// new core's second hyperthread when it has one, else the task's
			// own PU.
			if ctl := e.currentCtl[id]; ctl >= 0 && e.mach.ClusterNodeDead(e.mach.ClusterNodeOfPU(ctl)) {
				nctl := siblingPU(e.mach.Topology(), pu)
				if err := ep.RebindControl(t, nctl); err != nil {
					e.errs = append(e.errs, fmt.Errorf("epoch %d: rebind control %s: %w", ep.Index(), t, err))
				} else {
					e.currentCtl[id] = nctl
				}
			}
		}
	}
	// The failure changed both the path prices (degraded edges) and where
	// the crossing streams run (evacuees), so the declared fabric contention
	// is stale for every mode — the arms differ in placement decisions, not
	// in pricing honesty.
	SetFabricContention(e.mach, e.assignmentLocked(), e.windowOrMatrix(ep))
}

// patchDeadSlots rewrites candidate slots that landed on dead cluster nodes
// onto surviving capacity, via the same matcher the forced evacuation uses.
// Control slots parked on dead nodes follow their task. A no-op before any
// kill event.
func (e *AdaptiveEngine) patchDeadSlots(cand *Assignment, live []*orwl.Task, w *comm.Matrix) {
	if !e.mach.AnyDeadClusterNode() {
		return
	}
	var ids []int
	for _, t := range live {
		id := t.ID()
		if pu := cand.TaskPU[id]; pu >= 0 && e.mach.ClusterNodeDead(e.mach.ClusterNodeOfPU(pu)) {
			ids = append(ids, id)
		}
	}
	if len(ids) > 0 {
		slots, err := e.survivorSlots(ids, cand.TaskPU, live, w)
		if err != nil {
			// Fall back to the mapping in force, which is alive post-evacuation.
			for _, id := range ids {
				cand.TaskPU[id] = e.current[id]
			}
		} else {
			for i, id := range ids {
				cand.TaskPU[id] = slots[i]
			}
		}
	}
	for _, t := range live {
		id := t.ID()
		if ctl := cand.ControlPU[id]; ctl >= 0 && e.mach.ClusterNodeDead(e.mach.ClusterNodeOfPU(ctl)) {
			if pu := cand.TaskPU[id]; pu >= 0 {
				cand.ControlPU[id] = siblingPU(e.mach.Topology(), pu)
			} else {
				cand.ControlPU[id] = -1
			}
		}
	}
}

// survivorSlots picks a surviving PU for each of the given task ids,
// deterministically and invariant-preserving by construction: no slot on a
// dead node, and no PU loaded past ceil(live tasks / surviving PUs),
// counting the other live tasks' slots in taskPU. The node preference order
// is the FaultMode's:
//
//   - FaultAware keeps the group together on the surviving node with the
//     cheapest modeled traffic to the group's live outside partners under
//     the degraded fabric (ties: more free capacity, then lower index),
//     filling it up to the balance bound and spilling to the next;
//   - FaultBlind fills surviving nodes in index order;
//   - FaultRespawn deals the tasks round-robin across the surviving nodes.
func (e *AdaptiveEngine) survivorSlots(ids []int, taskPU []int, live []*orwl.Task, w *comm.Matrix) ([]int, error) {
	topo := e.mach.Topology()
	numC := topo.NumClusterNodes()
	// Candidate PUs per surviving node: every core's first hyperthread
	// first, so evacuees take whole cores before doubling up on siblings.
	puOrder := make([][]int, numC)
	for pass := 0; pass < 2; pass++ {
		for core := 0; core < topo.NumCores(); core++ {
			var pu int
			if pass == 0 {
				pu = firstPU(topo, core)
			} else if pu = secondPU(topo, core); pu < 0 {
				continue
			}
			if c := e.mach.ClusterNodeOfPU(pu); !e.mach.ClusterNodeDead(c) {
				puOrder[c] = append(puOrder[c], pu)
			}
		}
	}
	var aliveNodes []int
	alivePUs := 0
	for c := 0; c < numC; c++ {
		if len(puOrder[c]) > 0 {
			aliveNodes = append(aliveNodes, c)
			alivePUs += len(puOrder[c])
		}
	}
	if alivePUs == 0 {
		return nil, fmt.Errorf("placement: no surviving capacity to evacuate %d tasks into", len(ids))
	}
	inSet := make(map[int]bool, len(ids))
	for _, id := range ids {
		inSet[id] = true
	}
	load := make(map[int]int)
	liveCount := 0
	for _, t := range live {
		liveCount++
		if id := t.ID(); !inSet[id] && taskPU[id] >= 0 {
			load[taskPU[id]]++
		}
	}
	capPerPU := (liveCount + alivePUs - 1) / alivePUs
	if capPerPU < 1 {
		capPerPU = 1
	}
	// pick takes the first under-bound PU in the node preference order,
	// escalating the bound only when every candidate is full (possible only
	// when the platform was already oversubscribed past the balance bound).
	pick := func(order []int) int {
		for bound := capPerPU; ; bound++ {
			for _, c := range order {
				for _, pu := range puOrder[c] {
					if load[pu] < bound {
						load[pu]++
						return pu
					}
				}
			}
		}
	}
	out := make([]int, len(ids))
	if e.opts.FaultMode == FaultRespawn {
		for i := range ids {
			k := i % len(aliveNodes)
			rot := append(append([]int(nil), aliveNodes[k:]...), aliveNodes[:k]...)
			out[i] = pick(rot)
		}
		return out, nil
	}
	order := aliveNodes
	if e.opts.FaultMode == FaultAware {
		// Score each surviving node by the modeled cost of the evacuated
		// group's traffic to its live outside partners, as seen from that
		// node — the degraded fabric prices included.
		type scored struct {
			c    int
			cost float64
			free int
		}
		sc := make([]scored, len(aliveNodes))
		for i, c := range aliveNodes {
			rep := puOrder[c][0]
			var cost float64
			for _, id := range ids {
				for _, t := range live {
					j := t.ID()
					if inSet[j] {
						continue
					}
					if vol := w.At(id, j) + w.At(j, id); vol != 0 && taskPU[j] != rep {
						cost += e.mach.TransferCost(rep, taskPU[j], vol)
					}
				}
			}
			free := 0
			for _, pu := range puOrder[c] {
				if load[pu] < capPerPU {
					free += capPerPU - load[pu]
				}
			}
			sc[i] = scored{c, cost, free}
		}
		sort.Slice(sc, func(a, b int) bool {
			if sc[a].cost != sc[b].cost {
				return sc[a].cost < sc[b].cost
			}
			if sc[a].free != sc[b].free {
				return sc[a].free > sc[b].free
			}
			return sc[a].c < sc[b].c
		})
		order = make([]int, len(sc))
		for i, s := range sc {
			order[i] = s.c
		}
	}
	for i := range ids {
		out[i] = pick(order)
	}
	return out, nil
}

// siblingPU returns the second hyperthread of pu's core when the core has
// one, else pu itself — where an evacuated task's control thread lands.
func siblingPU(topo *topology.Topology, pu int) int {
	core := topo.PU(pu).Ancestor(topology.Core).LevelIndex
	if s := secondPU(topo, core); s >= 0 && s != pu {
		return s
	}
	return pu
}

// anchorCandidate canonicalizes a candidate mapping against the mapping in
// force. A candidate is computed from scratch each epoch, so it freely
// relabels cost-symmetric slots — swapping two tasks inside one cluster
// node, or parking a task on an equivalent sibling core — and each such
// relabeling would otherwise be committed as a real migration (inflating
// IntraNodeRebinds and the hysteresis bill) while buying nothing. Two
// exact-zero rewrites run to a fixpoint in deterministic task order: a pair
// of live tasks whose candidate slots are each other's current slots on one
// node is swapped back, and a task moved within its node whose current slot
// is unoccupied in the candidate is parked back — in both cases only when
// the modeled communication cost of the rewrite is exactly zero. Control
// PUs follow their slots, so an anchored slot triggers no control rebind
// either.
func (e *AdaptiveEngine) anchorCandidate(cand *Assignment, w *comm.Matrix, isLive []bool) {
	n := len(cand.TaskPU)
	if len(e.current) < n {
		n = len(e.current)
	}
	if len(cand.ControlPU) < n || len(e.currentCtl) < n {
		return
	}
	// taskCost prices task i at pu against every partner's candidate slot.
	taskCost := func(i, pu int) float64 {
		var s float64
		for j := 0; j < w.Order() && j < n; j++ {
			if j == i {
				continue
			}
			if vol := w.At(i, j) + w.At(j, i); vol != 0 {
				s += e.mach.TransferCost(pu, cand.TaskPU[j], vol)
			}
		}
		return s
	}
	// Wholesale rule first: the per-node Algorithm 1 stage recomputes each
	// node's internal arrangement from scratch, so a node's candidate slots
	// are often a many-task permutation of its current ones (not just a
	// transposition). Revert each node's within-node moves as one block when
	// the full mapping cost is bit-identical either way and no task from
	// another node claimed one of the freed slots.
	byNode := map[int][]int{}
	maxNode := -1
	for i := 0; i < n; i++ {
		pi := cand.TaskPU[i]
		if !isLive[i] || pi < 0 || e.current[i] < 0 || pi == e.current[i] {
			continue
		}
		node := e.mach.ClusterNodeOfPU(pi)
		if node != e.mach.ClusterNodeOfPU(e.current[i]) {
			continue
		}
		byNode[node] = append(byNode[node], i)
		if node > maxNode {
			maxNode = node
		}
	}
	for node := 0; node <= maxNode; node++ {
		s := byNode[node]
		if len(s) == 0 {
			continue
		}
		inS := make(map[int]bool, len(s))
		for _, i := range s {
			inS[i] = true
		}
		blocked := false
		for k := 0; k < n && !blocked; k++ {
			if inS[k] {
				continue
			}
			for _, i := range s {
				if cand.TaskPU[k] == e.current[i] {
					blocked = true
					break
				}
			}
		}
		if blocked {
			continue
		}
		before := MappingCost(e.mach, w, cand.TaskPU)
		saved := make([]int, len(s))
		for si, i := range s {
			saved[si] = cand.TaskPU[i]
			cand.TaskPU[i] = e.current[i]
		}
		if MappingCost(e.mach, w, cand.TaskPU) != before {
			for si, i := range s {
				cand.TaskPU[i] = saved[si]
			}
			continue
		}
		for _, i := range s {
			cand.ControlPU[i] = e.currentCtl[i]
		}
	}
	// Every committed rewrite locks the anchored task, so the pass loop
	// strictly shrinks the mover set and terminates even on oversubscribed
	// machines, where tasks share PUs and an unbounded fixpoint could swap
	// the same shared slot back and forth forever.
	locked := make([]bool, n)
	for changed, pass := true, 0; changed && pass < n; pass++ {
		changed = false
		for i := 0; i < n; i++ {
			pi := cand.TaskPU[i]
			if locked[i] || !isLive[i] || pi < 0 || e.current[i] < 0 || pi == e.current[i] {
				continue
			}
			if e.mach.ClusterNodeOfPU(pi) != e.mach.ClusterNodeOfPU(e.current[i]) {
				continue
			}
			// Swap rule: whichever live task the candidate put on i's
			// current slot — a same-node sibling, or a task migrating in
			// from another node — takes i's candidate slot instead, so i
			// stays put. The incoming task pays its cross-node move either
			// way; only the spurious intra-node relabeling disappears.
			swapped := false
			for j := 0; j < n; j++ {
				if j == i || locked[j] || !isLive[j] || cand.TaskPU[j] != e.current[i] {
					continue
				}
				before := taskCost(i, pi) + taskCost(j, cand.TaskPU[j])
				cand.TaskPU[i], cand.TaskPU[j] = e.current[i], pi
				after := taskCost(i, cand.TaskPU[i]) + taskCost(j, cand.TaskPU[j])
				if after != before {
					cand.TaskPU[i], cand.TaskPU[j] = pi, e.current[i]
					continue
				}
				cand.ControlPU[i], cand.ControlPU[j] = cand.ControlPU[j], cand.ControlPU[i]
				locked[i] = true
				changed, swapped = true, true
				break
			}
			if swapped {
				continue
			}
			occupied := false
			for k := 0; k < n; k++ {
				if k != i && cand.TaskPU[k] == e.current[i] {
					occupied = true
					break
				}
			}
			if occupied || taskCost(i, e.current[i]) != taskCost(i, pi) {
				continue
			}
			cand.TaskPU[i] = e.current[i]
			cand.ControlPU[i] = e.currentCtl[i]
			locked[i] = true
			changed = true
		}
	}
}

// Stats returns a snapshot of the engine's decision counters.
func (e *AdaptiveEngine) Stats() AdaptiveStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Err joins every error the engine swallowed during epochs (a failing
// candidate computation skips the epoch rather than crashing the run).
func (e *AdaptiveEngine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return errors.Join(e.errs...)
}

// Assignment returns the mapping currently in force.
func (e *AdaptiveEngine) Assignment() *Assignment {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.assignmentLocked()
}

// assignmentLocked is Assignment without taking the engine lock, for use
// from inside the epoch hook (which already holds it).
func (e *AdaptiveEngine) assignmentLocked() *Assignment {
	name := "adaptive(" + e.opts.Candidate.Name() + ")"
	if e.opts.FreeMigration {
		name = "oracle(" + e.opts.Candidate.Name() + ")"
	}
	return &Assignment{
		Policy:       name,
		TaskPU:       append([]int(nil), e.current...),
		ControlPU:    append([]int(nil), e.currentCtl...),
		VirtualArity: 1,
	}
}

// MappingCost prices a task→PU mapping against a communication matrix: the
// sum, over every communicating pair, of the cost of moving their exchanged
// volume between their PUs. It is the objective the adaptive engine
// minimizes when comparing the current mapping with a candidate; only
// differences matter, so the omitted per-node contention effects cancel.
// It walks each row's nonzeros above the diagonal, a pair's volume being
// v + v (the matrix equals its transpose), so it adds the terms a loop over
// every pair reading At would add, in the same order, in O(nnz).
func MappingCost(mach *numasim.Machine, m *comm.Matrix, taskPU []int) float64 {
	var s float64
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			if j > i {
				s += mach.TransferCost(taskPU[i], taskPU[j], v+v)
			}
		})
	}
	return s
}
