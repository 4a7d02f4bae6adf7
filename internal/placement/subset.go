package placement

import (
	"fmt"
	"sort"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/treematch"
)

// AssignFreeSlots is the place-into-subset entry point the online scheduler
// (internal/sched) builds on: it runs the Hierarchical flow restricted to an
// arbitrary set of free core slots instead of the whole (empty) machine.
// free[n] lists the free core level-indices (global, ascending) of cluster
// node n; nodes outside the scheduler's chosen domain pass empty lists. The
// same three levels apply — partition the task graph across the nodes that
// hold free slots (group g sized for node g's free capacity), match groups to
// nodes (matchGroups) under the routed latencies between those nodes, then
// map each group onto its node's free cores by structural hop distance — so a
// job admitted into a fragmented machine still lands with fabric- and
// cache-aware locality. opts reaches the partition unchanged: a caller that
// places one matrix under many views passes the same opts.Spectral memo
// every time.
func AssignFreeSlots(mach *numasim.Machine, m *comm.Matrix, free [][]int, opts treematch.Options) (*Assignment, error) {
	return new(SlotMapper).Assign(mach, m, free, opts)
}

// SlotMapper is AssignFreeSlots with a working set it keeps from one call to
// the next: the active nodes and their capacities, the storage of the group
// matrix, of each group's sub-matrix and of its padding view, one distance
// table (the node model of level 2, then each node's free-core hops) and a
// treematch.Mapper, which runs the partition portfolio and the distance
// matcher in its own kept sets. The online scheduler's event loop keeps one
// and places every job it admits through it, so the whole placement runs on
// the loop's goroutine. The zero value is ready; a SlotMapper must not be
// used by two goroutines at once, and an Assignment it returns never shares
// its working set.
type SlotMapper struct {
	active, caps  []int
	agg, sub, pad comm.Storage
	table         distTable
	mapper        treematch.Mapper
}

// Assign is AssignFreeSlots in the mapper's working set. It neither writes
// free nor keeps any of it, so a caller may pass views of its own live
// lists.
func (s *SlotMapper) Assign(mach *numasim.Machine, m *comm.Matrix, free [][]int, opts treematch.Options) (*Assignment, error) {
	taskPU, err := s.AssignTasks(mach, m, free, opts)
	if err != nil {
		return nil, err
	}
	return unboundControls(taskPU, "subset"), nil
}

// AssignTasks is Assign without the control-thread report: it returns the
// PU of every task, in a slice of the caller's.
func (s *SlotMapper) AssignTasks(mach *numasim.Machine, m *comm.Matrix, free [][]int, opts treematch.Options) ([]int, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: subset assignment requires a machine")
	}
	topo := mach.Topology()
	if len(free) != topo.NumClusterNodes() {
		return nil, fmt.Errorf("placement: free-slot view covers %d nodes, machine has %d", len(free), topo.NumClusterNodes())
	}
	active := s.active[:0] // cluster nodes holding free slots, ascending
	total := 0
	for n, slots := range free {
		if len(slots) == 0 {
			continue
		}
		if !sort.IntsAreSorted(slots) {
			return nil, fmt.Errorf("placement: free slots of node %d not ascending", n)
		}
		lo, hi := topo.NodeCores(n)
		for i, c := range slots {
			if c < lo || c >= hi {
				return nil, fmt.Errorf("placement: free slot core %d is not on cluster node %d (cores [%d,%d))", c, n, lo, hi)
			}
			// Ascending and inside the node's own range, so a repeat
			// can only sit next to its original.
			if i > 0 && c == slots[i-1] {
				return nil, fmt.Errorf("placement: free slot core %d listed twice", c)
			}
		}
		active = append(active, n)
		total += len(slots)
	}
	s.active = active
	p := m.Order()
	if p > total {
		return nil, fmt.Errorf("placement: %d tasks exceed %d free slots", p, total)
	}
	taskPU := make([]int, p)
	if p == 0 {
		return taskPU, nil
	}

	if len(active) == 1 {
		local, err := s.mapOntoFreeCores(mach, m, free[active[0]])
		if err != nil {
			return nil, err
		}
		for t, c := range local {
			taskPU[t] = firstPU(topo, c)
		}
		return taskPU, nil
	}

	// Level 1: split the task graph across the nodes with free slots, group
	// g sized for active node g's free capacity.
	caps := s.caps[:0]
	for _, n := range active {
		caps = append(caps, len(free[n]))
	}
	s.caps = caps
	groups, err := s.mapper.PartitionAcrossWeighted(m, caps, opts)
	if err != nil {
		return nil, err
	}
	groupMatrix, err := m.AggregateIn(&s.agg, groups)
	if err != nil {
		return nil, err
	}

	// Level 2: match groups to the active nodes under the routed latencies
	// between them, the active submatrix of the fabric's. Uneven free
	// capacities are the common case under churn, and matchGroups then
	// constrains the matching by capacity class exactly as for Hierarchical:
	// group g may land only on a node with the same free capacity it was
	// sized for.
	latency := topo.FabricGraph().LatencyMatrix()
	between := func(i, j int) float64 { return latency[active[i]][active[j]] }
	nodeOf, err := matchGroupsIn(&s.mapper, &s.table, between, groupMatrix, caps, caps) // group -> index into active
	if err != nil {
		return nil, fmt.Errorf("placement: subset fabric matching: %w", err)
	}

	// Level 3: map each group onto its node's free cores.
	for g, tasks := range groups {
		if len(tasks) == 0 {
			continue
		}
		node := active[nodeOf[g]]
		sub, err := m.SubmatrixIn(&s.sub, tasks)
		if err != nil {
			return nil, err
		}
		local, err := s.mapOntoFreeCores(mach, sub, free[node])
		if err != nil {
			return nil, err
		}
		for i, task := range tasks {
			taskPU[task] = firstPU(topo, local[i])
		}
	}
	return taskPU, nil
}

// mapOntoFreeCores maps m's tasks onto a subset of the given free cores of a
// single cluster node, minimizing bytes x structural hop distance. The task
// matrix is padded with zero rows to the slot count (a read-only view) so the
// matcher chooses which free cores to occupy — dummy tasks absorb the
// leftover slots — and the returned slice gives each real task's core level
// index.
func (s *SlotMapper) mapOntoFreeCores(mach *numasim.Machine, m *comm.Matrix, slots []int) ([]int, error) {
	p, n := m.Order(), len(slots)
	if p > n {
		return nil, fmt.Errorf("placement: %d tasks exceed %d free cores on node", p, n)
	}
	topo := mach.Topology()
	ext := m
	if p < n {
		var err error
		ext, err = m.PadView(&s.pad, n)
		if err != nil {
			return nil, err
		}
	}
	cores := topo.Cores()
	dist := s.table.fill(n, func(i, j int) float64 {
		if i == j {
			return 0
		}
		return float64(topo.HopDistance(cores[slots[i]], cores[slots[j]]))
	})
	out, err := s.mapper.AssignByDistance(dist, ext, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("placement: subset intra-node matching: %w", err)
	}
	for t := range out[:p] {
		out[t] = slots[out[t]]
	}
	return out[:p], nil
}
