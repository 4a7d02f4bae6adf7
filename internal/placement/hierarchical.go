package placement

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// Hierarchical is the multi-level placement policy for clustered platforms:
// the task graph is first partitioned across the cluster nodes with a cut-
// minimizing, capacity-weighted grouping (treematch.PartitionAcrossWeighted:
// group sizes proportional to node core counts, so a heterogeneous
// platform's small nodes are not oversubscribed) — every cut byte crosses
// the interconnect fabric, so the node-level cut dominates the cost — and
// the ordinary Algorithm 1 then maps each node's task group onto that
// node's own intra-machine tree from the group's sub-matrix. On a machine
// without a cluster level it degrades to the plain TreeMatch policy.
//
// On a multi-switch or shaped fabric placement is three-level: the
// aggregated group-to-group matrix is itself matched onto the fabric
// (matchFabric), so groups that exchange heavy residual volume land in the
// same rack (and pod), or few hops apart, and only light traffic crosses the
// uplinks. On a flat single-switch fabric every group-to-node assignment
// prices identically, so the matching is skipped and group g runs on node g,
// which keeps the result deterministic.
//
// Compared with running flat TreeMatch on the whole cluster tree, the
// explicit top split optimizes the fabric cut directly instead of letting it
// emerge from bottom-up core-level grouping, and keeps the per-node
// instances small.
type Hierarchical struct {
	// NoFabricMatch disables the group→node matching on multi-switch
	// fabrics, pinning partition group g to cluster node g as on a flat
	// fabric. This is the fabric-blind (depth-blind) arm of ablations A10
	// and A11: the node-level cut is still minimized, but where each group
	// lands relative to the rack and pod boundaries is left to chance.
	NoFabricMatch bool
	// CapacityBlind disables the capacity weighting of the node-level
	// partition, giving every node the equal share ceil(p/k) regardless of
	// its core count. This is the capacity-blind arm of ablation A11: on a
	// heterogeneous platform the small nodes oversubscribe and the large
	// ones idle.
	CapacityBlind bool
	// SpreadDomains is the fault-aware initial-placement arm: after the
	// group→node matching, the two most heavily coupled partition groups —
	// the critical pair whose joint loss would stall the computation — are
	// forced onto different racks when the matching co-located them, via the
	// cheapest capacity-class-preserving swap under the fabric's routed
	// latency model. The clustering objective co-locates exactly such pairs,
	// so this deliberately trades some locality for blast-radius isolation:
	// a rack-level failure (a ToR sever, a correlated node kill) can then
	// take out at most one member of the pair.
	SpreadDomains bool
	// Workers bounds the worker pool that runs the per-node Algorithm 1
	// stage: the per-node mappings are independent (each works on its own
	// sub-matrix against the shared read-only task matrix), so on a
	// 1000-node placement they shard across CPUs. 0 means GOMAXPROCS; a
	// pool of 1 runs the nodes one after the other in group order. Results
	// are merged in group order regardless, so the assignment is identical
	// at any worker count.
	Workers int
}

// Name implements Policy.
func (Hierarchical) Name() string { return "hierarchical" }

// Assign implements Policy.
func (p Hierarchical) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: hierarchical requires a machine")
	}
	topo := mach.Topology()
	nodes := len(topo.ClusterNodes())
	if nodes <= 1 {
		a, err := TreeMatch{}.Assign(mach, m)
		if err != nil {
			return nil, err
		}
		a.Policy = p.Name()
		return a, nil
	}

	nodeTrees, err := treematch.NodeSubtrees(topo, topology.Core)
	if err != nil {
		return nil, err
	}
	caps := make([]int, nodes)
	for n := range caps {
		lo, hi := topo.NodeCores(n)
		caps[n] = hi - lo
	}

	// Level 1: split the task graph across the cluster nodes, minimizing
	// the volume that must cross the fabric; group g is sized for node g's
	// capacity (or for the equal share when capacity-blind).
	partCaps := caps
	if p.CapacityBlind {
		partCaps = make([]int, nodes)
		for i := range partCaps {
			partCaps[i] = 1
		}
	}
	groups, err := treematch.PartitionAcrossWeighted(m, partCaps, treematch.Options{})
	if err != nil {
		return nil, err
	}

	// Level 2: decide which cluster node each group runs on. A flat
	// single-switch fabric skips the matching (every group→node assignment
	// prices alike), and the positional order keeps A9 and older results
	// bit-stable. The group-to-group matrix is built only for the stages
	// that read it.
	nodeOf := make([]int, len(groups))
	for g := range nodeOf {
		nodeOf[g] = g
	}
	match := !p.NoFabricMatch && (topo.NumRacks() > 1 || topo.NumPods() > 1 || topo.FabricShape() != nil)
	spread := p.SpreadDomains && topo.NumRacks() > 1 && topo.FabricGraph() != nil
	if match || spread {
		groupMatrix, err := m.Aggregate(groups)
		if err != nil {
			return nil, err
		}
		if match {
			if nodeOf, err = matchFabric(topo, groupMatrix, partCaps, caps); err != nil {
				return nil, fmt.Errorf("placement: hierarchical fabric matching: %w", err)
			}
		}
		if spread {
			spreadCriticalPair(mach, topo, groupMatrix, partCaps, nodeOf)
		}
	}

	a := &Assignment{
		Policy:       p.Name(),
		TaskPU:       make([]int, m.Order()),
		ControlPU:    make([]int, m.Order()),
		Strategy:     treematch.ControlHyperthread,
		VirtualArity: 1,
	}
	// Per-node SMT ways: the fused machine's global minimum would deny
	// hyperthread control pairing on a node all of whose cores are
	// 2-threaded just because some *other* member is not — each node's
	// bindings should reflect its own hardware.
	ways := make([]int, nodes)
	for n := range ways {
		lo, hi := topo.NodeCores(n)
		ways[n] = len(topo.Cores()[lo].Children)
		for _, c := range topo.Cores()[lo:hi] {
			ways[n] = min(ways[n], len(c.Children))
		}
	}
	// Bottom level: the ordinary Algorithm 1 on each node's sub-matrix and
	// intra-machine tree, including the control-thread adaptation. The
	// per-node instances are independent, so they run across a bounded
	// worker pool; results land in a per-group slot and are merged in group
	// order below, which keeps the assignment bit-identical at any worker
	// count. Worker w maps groups w, w+W, w+2W, …, so which worker carves
	// which sub-matrix, and with it the bytes of a placement, does not
	// depend on goroutine timing. Each worker carves its sub-matrices into
	// its own storage and maps them with its own Mapper, so it reuses one
	// working set for all the nodes it maps; the results share none of it.
	results, errs := make([]*treematch.Result, len(groups)), make([]error, len(groups))
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(groups))
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var st comm.Storage
			var mapper treematch.Mapper
			for g := w; g < len(groups); g += workers {
				if len(groups[g]) == 0 {
					continue
				}
				node := nodeOf[g]
				sub, err := m.SubmatrixIn(&st, groups[g])
				if err == nil {
					results[g], err = mapper.Map(treematch.Target{Tree: nodeTrees[node], SMTWays: ways[node]}, sub,
						treematch.Options{Distribute: true})
				}
				if err != nil {
					errs[g] = fmt.Errorf("placement: hierarchical node %d: %w", node, err)
				}
			}
		}()
	}
	wg.Wait()

	nonEmpty := 0
	for g, group := range groups {
		if len(group) == 0 {
			continue
		}
		if errs[g] != nil {
			return nil, errs[g]
		}
		res := results[g]
		lo, _ := topo.NodeCores(nodeOf[g])
		a.bindResult(topo, res, group, lo)
		// Nodes of different sizes may resolve the control threads
		// differently; report the most conservative strategy in force on
		// any node (hyperthread < spare-cores < unmapped), so the summary
		// never overstates what the bindings deliver.
		nonEmpty++
		if res.Strategy > a.Strategy {
			a.Strategy = res.Strategy
		}
		if res.VirtualArity > a.VirtualArity {
			a.VirtualArity = res.VirtualArity
		}
	}
	if nonEmpty == 0 {
		a.Strategy = treematch.ControlUnmapped
	}
	return a, nil
}

// matchFabric is level 2 of Assign: it returns the cluster node of every
// partition group. There are two matchers, and all this function does is
// choose between them and, for the second, choose the distance model:
//
//   - a balanced fabric tree whose groups are all sized alike is the paper's
//     own problem one level up, so Algorithm 1 (treematch.MapMatrix) groups
//     the groups rack by rack (and pod by pod), bit-stable with the revisions
//     that knew no other fabric;
//   - a balanced tree under capacity classes — a group sized for an 8-core
//     node can only run on an 8-core node, which level-by-level grouping
//     cannot express — goes to matchGroups under the tree's hop distances;
//   - a shaped (torus, dragonfly) fabric or an uneven tree, which admit no
//     balanced abstract tree, go to matchGroups under the fabric graph's
//     routed latencies, with the space-filling-curve embedding as a seed
//     candidate on a torus without classes.
//
// Assign calls it only off a flat single-switch fabric.
func matchFabric(topo *topology.Topology, groupMatrix *comm.Matrix, groupCaps, nodeCaps []int) ([]int, error) {
	shape := topo.FabricShape()
	var fabricTree *treematch.Tree
	if shape == nil {
		tree, err := treematch.FabricTree(topo)
		switch {
		case err == nil:
			fabricTree = tree
		case !errors.Is(err, treematch.ErrUneven):
			return nil, err
		}
	}
	classed := mixedCaps(groupCaps)
	switch {
	case fabricTree != nil && !classed:
		// Clustering, not distribution: spreading groups across racks is
		// exactly what the matching must avoid, so the tree is not
		// restricted.
		mp, err := treematch.MapMatrix(fabricTree, groupMatrix, treematch.Options{})
		if err != nil {
			return nil, err
		}
		return mp.Assignment, nil
	case fabricTree != nil:
		hops := func(a, b int) float64 { return float64(fabricTree.LeafDistance(a, b)) }
		return matchGroups(hops, groupMatrix, groupCaps, nodeCaps)
	}
	latency := topo.FabricGraph().LatencyMatrix()
	var seeds [][]int
	if shape != nil && shape.Kind == "torus" && !classed {
		if seed, err := treematch.SFCSeed(shape.Dims, groupMatrix); err == nil {
			seeds = append(seeds, seed)
		}
	}
	return matchGroups(func(a, b int) float64 { return latency[a][b] }, groupMatrix, groupCaps, nodeCaps, seeds...)
}

// matchGroups is the one group→node matching stage under a distance model:
// it returns, for every partition group, the index of the node it runs on,
// minimizing the group-to-group volume weighted by dist between the nodes
// (treematch.AssignByDistance; each seed is a candidate assignment it may
// improve on). Node b is whatever the caller's model indexes — a cluster
// node of the whole fabric, or the b-th node of a free-slot view. When the
// groups were sized for differing capacities the matching is constrained by
// capacity class: a group may only land on a node of the capacity it was
// sized for. It runs in fresh memory; matchGroupsIn is the same stage in a
// caller's.
func matchGroups(dist func(a, b int) float64, groupMatrix *comm.Matrix, groupCaps, nodeCaps []int, seeds ...[]int) ([]int, error) {
	var model distTable
	return matchGroupsIn(nil, &model, dist, groupMatrix, groupCaps, nodeCaps, seeds...)
}

// matchGroupsIn is matchGroups with the model built in t and matched by w
// (Mapper.AssignByDistance), or by the package's AssignByDistance in fresh
// memory when w is nil; the result is the caller's.
func matchGroupsIn(w *treematch.Mapper, t *distTable, dist func(a, b int) float64, groupMatrix *comm.Matrix, groupCaps, nodeCaps []int, seeds ...[]int) ([]int, error) {
	model := t.fill(groupMatrix.Order(), dist)
	var entityClass, leafClass []int
	if mixedCaps(groupCaps) {
		entityClass, leafClass = capacityClasses(groupCaps, nodeCaps)
	}
	if w == nil {
		return treematch.AssignByDistance(model, groupMatrix, entityClass, leafClass, seeds...)
	}
	return w.AssignByDistance(model, groupMatrix, entityClass, leafClass, seeds...)
}

// distTable is a square distance table: one flat block behind row headers,
// kept from one fill to the next.
type distTable struct {
	cells []float64
	rows  [][]float64
}

// fill makes the table n×n with entry (a, b) = dist(a, b) and returns its
// rows, which are valid until the next fill.
func (t *distTable) fill(n int, dist func(a, b int) float64) [][]float64 {
	t.cells, t.rows = slices.Grow(t.cells[:0], n*n)[:n*n], slices.Grow(t.rows[:0], n)[:n]
	for a := range t.rows {
		row := t.cells[a*n : (a+1)*n : (a+1)*n]
		for b := range row {
			row[b] = dist(a, b)
		}
		t.rows[a] = row
	}
	return t.rows
}

// mixedCaps reports whether the capacities differ from one another.
func mixedCaps(caps []int) bool {
	for _, c := range caps {
		if c != caps[0] {
			return true
		}
	}
	return false
}

// capacityClasses numbers the distinct capacities in first-seen order
// (groups first, then nodes) and returns each group's and each node's class:
// a group sized for one capacity may only land on a node of that capacity.
func capacityClasses(groupCaps, nodeCaps []int) (entityClass, leafClass []int) {
	classOf := map[int]int{}
	classes := func(caps []int) []int {
		out := make([]int, len(caps))
		for i, c := range caps {
			if _, ok := classOf[c]; !ok {
				classOf[c] = len(classOf)
			}
			out[i] = classOf[c]
		}
		return out
	}
	return classes(groupCaps), classes(nodeCaps)
}

// spreadCriticalPair implements Hierarchical.SpreadDomains: if the two most
// heavily coupled partition groups landed in the same rack, swap one of them
// with a group on a different rack so a single rack failure cannot take both.
// Only swaps between groups of the same partition capacity are considered
// (the same capacity-class constraint the matching itself honors), and among
// the valid spreading swaps the one with the lowest total mapped cost under
// the fabric's routed latency model wins, first-wins on ties. A no-op when
// the pair is already rack-separated, when no valid swap exists, or when the
// group matrix carries no traffic at all.
func spreadCriticalPair(mach *numasim.Machine, topo *topology.Topology, groupMatrix *comm.Matrix, partCaps, nodeOf []int) {
	n := groupMatrix.Order()
	if n < 3 {
		return
	}
	g1, g2 := -1, -1
	heaviest := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if v := groupMatrix.At(i, j) + groupMatrix.At(j, i); v > heaviest {
				g1, g2, heaviest = i, j, v
			}
		}
	}
	if g1 < 0 || mach.RackOfClusterNode(nodeOf[g1]) != mach.RackOfClusterNode(nodeOf[g2]) {
		return
	}
	dist := topo.FabricGraph().LatencyMatrix()
	mappedCost := func(assign []int) float64 {
		var c float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if v := groupMatrix.At(i, j) + groupMatrix.At(j, i); v > 0 {
					c += float64(v * dist[assign[i]][assign[j]])
				}
			}
		}
		return c
	}
	bestCost := math.Inf(1)
	bestMoved, bestPartner := -1, -1
	trial := make([]int, n)
	for _, moved := range []int{g1, g2} {
		anchor := g1 + g2 - moved
		for h := 0; h < n; h++ {
			if h == g1 || h == g2 || partCaps[h] != partCaps[moved] {
				continue
			}
			if mach.RackOfClusterNode(nodeOf[h]) == mach.RackOfClusterNode(nodeOf[anchor]) {
				continue
			}
			copy(trial, nodeOf)
			trial[moved], trial[h] = nodeOf[h], nodeOf[moved]
			if c := mappedCost(trial); c < bestCost {
				bestCost, bestMoved, bestPartner = c, moved, h
			}
		}
	}
	if bestMoved >= 0 {
		nodeOf[bestMoved], nodeOf[bestPartner] = nodeOf[bestPartner], nodeOf[bestMoved]
	}
}

// RoundRobinNodes deals tasks across the cluster nodes round-robin:
// consecutive tasks land on different nodes, the affinity-blind cluster
// baseline (the multi-node analogue of Scatter). Within a node, cores fill
// sequentially. Control threads are left to the OS.
type RoundRobinNodes struct{}

// Name implements Policy.
func (RoundRobinNodes) Name() string { return "rr-nodes" }

// Assign implements Policy.
func (RoundRobinNodes) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: rr-nodes requires a machine")
	}
	topo := mach.Topology()
	nodes := topo.NumClusterNodes()
	a := unboundControls(make([]int, m.Order()), "rr-nodes")
	for i := range a.TaskPU {
		lo, hi := topo.NodeCores(i % nodes)
		a.TaskPU[i] = firstPU(topo, lo+(i/nodes)%(hi-lo))
	}
	// Node n is dealt ⌈(order−n)/nodes⌉ tasks over its own cores.
	for n := range min(nodes, m.Order()) {
		lo, hi := topo.NodeCores(n)
		dealt := (m.Order() - n + nodes - 1) / nodes
		a.VirtualArity = max(a.VirtualArity, (dealt+hi-lo-1)/(hi-lo))
	}
	return a, nil
}
