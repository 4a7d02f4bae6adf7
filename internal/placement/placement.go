// Package placement is the paper's primary contribution: the topology-aware
// placement module of the ORWL runtime. It extracts the application's
// affinity matrix from the runtime, obtains the machine topology (the HWLOC
// role), computes a thread→core binding with the TreeMatch-based
// Algorithm 1 — including the oversubscription and control-thread
// adaptations — and applies the binding to the runtime.
//
// Baseline policies (compact, scatter, round-robin, random, no-bind) are
// provided for the comparisons and ablations in the evaluation.
//
// # Objective function and units
//
// Policies minimize treematch's structural objective — bytes × tree hops
// over the declared affinity matrix; on clusters, Hierarchical first
// minimizes the fabric cut in bytes and, on multi-switch fabrics, the
// rack-crossing residual (see treematch.PartitionAcross and
// treematch.FabricTree). The policies themselves never handle cycles. The
// bridge to priced time is the contention derivation applied after a
// placement is chosen: SetContention declares per-NUMA-node accessor
// counts, and SetFabricContention the per-link crossing stream counts at
// every fabric level (NICs, rack uplinks, pod uplinks); the simulator
// (internal/numasim) then charges CPU cycles —
// network cycles for fabric paths — against those declarations. Whether the
// structural optimum coincides with the priced optimum is not guaranteed;
// internal/comm's package documentation spells out where the two diverge.
package placement

import (
	"fmt"
	"math/rand"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// Assignment is a computed placement for the tasks of a program.
type Assignment struct {
	// Policy is the name of the policy that produced the assignment.
	Policy string
	// TaskPU maps each task to the PU its computation thread is bound to;
	// -1 leaves the task to the OS scheduler.
	TaskPU []int
	// ControlPU maps each task to the PU of its control thread; -1 leaves
	// it unmapped.
	ControlPU []int
	// Strategy records how control threads were handled (TreeMatch only;
	// baselines always report ControlUnmapped).
	Strategy treematch.ControlStrategy
	// VirtualArity is >1 when the tasks oversubscribe the cores.
	VirtualArity int
}

// Policy computes an assignment of program tasks to the machine, given the
// program's affinity matrix.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Assign computes the placement of m.Order() tasks on the machine.
	Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error)
}

// firstPU returns the OS index of the first PU of the core with the given
// level index.
func firstPU(topo *topology.Topology, core int) int {
	return topo.Cores()[core].Children[0].OSIndex
}

// secondPU returns the second hyperthread of a core, or -1 without SMT.
func secondPU(topo *topology.Topology, core int) int {
	c := topo.Cores()[core]
	if len(c.Children) < 2 {
		return -1
	}
	return c.Children[1].OSIndex
}

// TreeMatch is the paper's policy: Algorithm 1 on the core-level topology
// tree, with the distribution requirement ("distribute threads over NUMA
// nodes") enabled by default.
type TreeMatch struct {
	// NoDistribute disables the tree-restriction distribution step, for
	// the ablation that isolates its contribution.
	NoDistribute bool
}

// Name implements Policy.
func (TreeMatch) Name() string { return "treematch" }

// Assign implements Policy: it builds the abstract tree whose leaves are
// the physical cores, runs Algorithm 1 (with the control-thread and
// oversubscription adaptations), and translates core slots to PUs:
// computation threads go to each core's first hyperthread, and control
// threads to the second one when the strategy is hyperthread pairing.
func (p TreeMatch) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: treematch requires a machine")
	}
	topo := mach.Topology()
	tree, err := treematch.FromTopology(topo, topology.Core)
	if err != nil {
		return nil, err
	}
	// The per-core minimum (not the first core's fan-out) decides whether
	// hyperthread pairing is available: see topology.SMTWays.
	res, err := treematch.Map(treematch.Target{Tree: tree, SMTWays: topo.SMTWays()}, m,
		treematch.Options{Distribute: !p.NoDistribute})
	if err != nil {
		return nil, err
	}
	a := &Assignment{
		Policy:       p.Name(),
		TaskPU:       make([]int, m.Order()),
		ControlPU:    make([]int, m.Order()),
		Strategy:     res.Strategy,
		VirtualArity: res.VirtualArity,
	}
	a.bindResult(topo, res, nil, 0)
	return a, nil
}

// bindResult translates one Algorithm 1 result into PU bindings: entity i of
// res is task tasks[i] (task i when tasks is nil), and its core slots count
// from coreBase, the first core of the node the result was computed for.
// Computation threads go to each core's first hyperthread; control threads
// to the second one when the strategy is hyperthread pairing, to the first
// one of their own core otherwise, and to the OS (-1) when unmapped.
func (a *Assignment) bindResult(topo *topology.Topology, res *treematch.Result, tasks []int, coreBase int) {
	for i, ctl := range res.Control {
		task := i
		if tasks != nil {
			task = tasks[i]
		}
		a.TaskPU[task] = firstPU(topo, coreBase+res.Assignment[i])
		switch {
		case ctl < 0:
			a.ControlPU[task] = -1
		case res.Strategy == treematch.ControlHyperthread:
			a.ControlPU[task] = secondPU(topo, coreBase+ctl)
		default:
			a.ControlPU[task] = firstPU(topo, coreBase+ctl)
		}
	}
}

// Compact packs task i onto core i modulo the core count, filling sockets
// in order. Control threads are left to the OS.
type Compact struct{}

// Name implements Policy.
func (Compact) Name() string { return "compact" }

// Assign implements Policy.
func (Compact) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: compact requires a machine")
	}
	topo := mach.Topology()
	a := unboundControls(m.Order(), "compact")
	for i := range a.TaskPU {
		a.TaskPU[i] = firstPU(topo, i%topo.NumCores())
	}
	a.VirtualArity = (m.Order() + topo.NumCores() - 1) / topo.NumCores()
	return a, nil
}

// Scatter strides tasks across the sockets round-robin: consecutive tasks
// land on different sockets — the worst reasonable layout for a stencil.
type Scatter struct{}

// Name implements Policy.
func (Scatter) Name() string { return "scatter" }

// Assign implements Policy. Cores are dealt out socket by socket in
// round-robin order — consecutive tasks land on different sockets for as
// long as more than one socket still has free cores — which stays correct
// on uneven machines where the sockets do not evenly divide the cores (the
// old arithmetic `(k/sockets) % (cores/sockets)` aliased cores there, and
// divided by zero with more sockets than cores).
func (Scatter) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: scatter requires a machine")
	}
	topo := mach.Topology()
	order := scatterOrder(topo)
	a := unboundControls(m.Order(), "scatter")
	for i := range a.TaskPU {
		a.TaskPU[i] = firstPU(topo, order[i%len(order)])
	}
	a.VirtualArity = (m.Order() + len(order) - 1) / len(order)
	return a, nil
}

// scatterOrder lists the core level-indices in socket-interleaved order:
// every socket's first core, then every socket's second core, and so on,
// skipping sockets that have run out of cores.
func scatterOrder(topo *topology.Topology) []int {
	cores := topo.Cores()
	packs := topo.Level(topo.DepthOf(topology.Package))
	var queues [][]int
	if len(packs) > 0 {
		index := make(map[*topology.Object]int, len(packs))
		for i, p := range packs {
			index[p] = i
		}
		queues = make([][]int, len(packs))
		for c, core := range cores {
			i := index[core.Ancestor(topology.Package)]
			queues[i] = append(queues[i], c)
		}
	} else {
		all := make([]int, len(cores))
		for c := range all {
			all[c] = c
		}
		queues = [][]int{all}
	}
	order := make([]int, 0, len(cores))
	for pos := 0; len(order) < len(cores); pos++ {
		for _, q := range queues {
			if pos < len(q) {
				order = append(order, q[pos])
			}
		}
	}
	return order
}

// Random binds tasks to a seed-determined random permutation of the cores.
type Random struct {
	Seed int64
}

// Name implements Policy.
func (Random) Name() string { return "random" }

// Assign implements Policy.
func (p Random) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	if mach == nil {
		return nil, fmt.Errorf("placement: random requires a machine")
	}
	topo := mach.Topology()
	rng := rand.New(rand.NewSource(p.Seed))
	perm := rng.Perm(topo.NumCores())
	a := unboundControls(m.Order(), "random")
	for i := range a.TaskPU {
		a.TaskPU[i] = firstPU(topo, perm[i%len(perm)])
	}
	a.VirtualArity = (m.Order() + len(perm) - 1) / len(perm)
	return a, nil
}

// NoBind leaves every thread to the OS scheduler: the paper's "ORWL
// NoBind" configuration.
type NoBind struct{}

// Name implements Policy.
func (NoBind) Name() string { return "nobind" }

// Assign implements Policy.
func (NoBind) Assign(_ *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	a := unboundControls(m.Order(), "nobind")
	for i := range a.TaskPU {
		a.TaskPU[i] = -1
	}
	a.VirtualArity = 1
	return a, nil
}

// unboundControls builds an assignment skeleton with every control thread
// unmapped.
func unboundControls(order int, policy string) *Assignment {
	a := &Assignment{
		Policy:       policy,
		TaskPU:       make([]int, order),
		ControlPU:    make([]int, order),
		Strategy:     treematch.ControlUnmapped,
		VirtualArity: 1,
	}
	for i := range a.ControlPU {
		a.ControlPU[i] = -1
	}
	return a
}

// Apply binds the runtime's tasks (and control threads) according to the
// assignment. The assignment order must match the runtime's task order —
// which it does when the matrix came from rt.CommMatrix().
func Apply(rt *orwl.Runtime, a *Assignment) error {
	tasks := rt.Tasks()
	if len(tasks) != len(a.TaskPU) {
		return fmt.Errorf("placement: assignment order %d, runtime has %d tasks", len(a.TaskPU), len(tasks))
	}
	for i, t := range tasks {
		if err := rt.Bind(t, a.TaskPU[i]); err != nil {
			return err
		}
		if err := rt.BindControl(t, a.ControlPU[i]); err != nil {
			return err
		}
	}
	return nil
}

// Place runs the paper's full pipeline on an ORWL program: extract the
// affinity matrix from the runtime, compute the placement with the policy,
// apply it, and declare the memory and fabric contention the placement
// implies (SetContention with heavy, SetFabricContention with the same
// matrix). It returns the assignment for inspection.
func Place(rt *orwl.Runtime, pol Policy, heavy []bool) (*Assignment, error) {
	m := rt.CommMatrix()
	a, err := pol.Assign(rt.Machine(), m)
	if err != nil {
		return nil, err
	}
	if err := Apply(rt, a); err != nil {
		return nil, err
	}
	SetContention(rt.Machine(), a, heavy)
	SetFabricContention(rt.Machine(), a, m)
	return a, nil
}

// SetContention derives the static contention model of the machine from an
// assignment. heavy[i] marks the tasks with a significant per-iteration
// working set (for LK23, the main operations; frontier ops move only
// strips); nil means all tasks are heavy.
//
// Every memory node is charged the machine-wide average pressure — total
// heavy streams divided by the node count — because the data of an
// iterative block workload is spread across the nodes by construction
// (bound: one block home per task's node; unbound: uniform roaming first
// touch). Unbound heavy tasks additionally cross the inter-socket fabric
// with probability (nodes-1)/nodes, which sets the remote-stream count;
// bound tasks stream locally and add none.
func SetContention(mach *numasim.Machine, a *Assignment, heavy []bool) {
	nodes := mach.Topology().NumNUMANodes()
	total, unbound := 0, 0
	for i, pu := range a.TaskPU {
		if heavy != nil && i < len(heavy) && !heavy[i] {
			continue
		}
		total++
		if pu < 0 {
			unbound++
		}
	}
	perNode := (total + nodes - 1) / nodes
	for n := 0; n < nodes; n++ {
		mach.SetAccessors(n, perNode)
	}
	remote := 0
	if nodes > 1 {
		remote = unbound * (nodes - 1) / nodes
	}
	mach.SetRemoteStreams(remote)
}

// SetFabricContention derives the cluster-fabric contention from an
// assignment and the program's affinity matrix, per edge of the fabric
// graph: every task that exchanges volume with a task placed on another
// cluster node contributes one stream to the edges of the routed path
// between their nodes (topology.FabricGraph.AppendPath, the path pricing
// walks), however many partners share an edge. The counts are declared with
// numasim.Machine.SetEdgeStreams, so a transfer is capped by the most
// contended edge on its path: partitions that balance the crossing streams
// across NICs, racks and pods sustain more bandwidth than ones that funnel
// them, even at equal total cut.
//
// One rule depends on the fabric's shape. On a compiled tree every stream
// enters and leaves through per-node and per-group links, so a task counts
// only the own-side half of each path — its NIC and its own groups' uplinks,
// up to the switch the path turns around at — and the partner counts the
// other half; a bound task whose partner is unbound may stream anywhere and
// counts its whole up-chain to the root switch. On a shaped (torus or
// dragonfly) fabric the inner edges of a path belong to neither endpoint, so
// a task counts the whole path, and with an unbound partner every edge. An
// unbound task roams and is counted on every edge of either kind of fabric.
// A no-op on single-machine topologies.
func SetFabricContention(mach *numasim.Machine, a *Assignment, m *comm.Matrix) {
	g := mach.FabricGraph()
	if g == nil || g.NumNodes() <= 1 {
		return
	}
	ownSide := g.Shape() == nil
	counts := make([]int, g.NumEdges())
	// used marks the edges the current task streams over, touched lists them
	// so the marks are undone in O(path) rather than O(edges) per task.
	used := make([]bool, g.NumEdges())
	var path, touched []int
	mark := func(path []int) {
		for _, e := range path {
			if !used[e] {
				used[e] = true
				touched = append(touched, e)
			}
		}
	}
	adj := m.SymmetricAdjacency(nil)
	for i := 0; i < m.Order() && i < len(a.TaskPU); i++ {
		pi := a.TaskPU[i]
		everyEdge := false
		for _, j := range adj.Col[adj.Off[i]:adj.Off[i+1]] {
			if int(j) >= len(a.TaskPU) {
				break
			}
			switch pj := a.TaskPU[j]; {
			case pi < 0 || (pj < 0 && !ownSide):
				everyEdge = true
			case pj < 0:
				mark(g.AppendPath(path[:0], mach.ClusterNodeOfPU(pi), g.Root()))
			default:
				path = g.AppendPath(path[:0], mach.ClusterNodeOfPU(pi), mach.ClusterNodeOfPU(pj))
				if ownSide {
					path = path[:len(path)/2]
				}
				mark(path)
			}
			if everyEdge {
				break
			}
		}
		if everyEdge {
			for e := range counts {
				counts[e]++
			}
		} else {
			for _, e := range touched {
				counts[e]++
			}
		}
		for _, e := range touched {
			used[e] = false
		}
		touched = touched[:0]
	}
	mach.SetEdgeStreams(counts)
}
