package placement

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// contentionEdge resolves a readable edge name to a fabric-graph edge id:
// "nicN", "rackN" and "podN" address link N of a tree fabric's level 0, 1
// and 2; "A-B" is the edge between two vertices of any fabric.
func contentionEdge(t *testing.T, g *topology.FabricGraph, name string) int {
	t.Helper()
	var n, a, b int
	for level, prefix := range []string{"nic", "rack", "pod"} {
		if _, err := fmt.Sscanf(name, prefix+"%d", &n); err == nil {
			return g.LevelEdges(level)[n]
		}
	}
	if _, err := fmt.Sscanf(name, "%d-%d", &a, &b); err != nil {
		t.Fatalf("edge name %q", name)
	}
	for e, edge := range g.Edges() {
		if edge.A == min(a, b) && edge.B == max(a, b) {
			return e
		}
	}
	t.Fatalf("no edge %q", name)
	return -1
}

// TestFabricContentionRule tables the one contention derivation over the
// fabric graph. taskNode places task i on the first PU of a cluster node, -1
// leaves it unbound; pairs lists the communicating task pairs. Every edge
// is expected to carry `base` streams except the ones named in want.
//
// Tree fabrics count the own-side half of each routed path (the partner
// counts the other half), and a bound task with an unbound partner its own
// up-chain to the root only; a torus counts whole paths, and every edge for a
// bound task with an unbound partner. An unbound task counts on every edge of
// either; a task without traffic on none.
func TestFabricContentionRule(t *testing.T) {
	cases := []struct {
		name     string
		spec     string
		taskNode []int
		pairs    [][2]int
		base     int
		want     map[string]int
	}{
		{
			name: "rack",
			spec: "rack:2 node:2 pack:1 core:2 pu:1",
			// t0 talks within its rack (t1) and across (t2); t3 roams and
			// talks to t4; t5 is bound and silent.
			taskNode: []int{0, 1, 2, -1, 3, 3},
			pairs:    [][2]int{{0, 1}, {0, 2}, {3, 4}},
			base:     1, // the unbound t3
			want: map[string]int{
				"nic0": 2, "nic1": 2, "nic2": 2, // t0, t1, t2: own NIC only
				"rack0": 2, // t0's half of the cross-rack path
				"nic3":  2, // t4: up-chain of node 3 ...
				"rack1": 3, // ... plus t2's half
			},
		},
		{
			name: "pod-hetero",
			spec: "pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}",
			// t0 (node 0) talks across pods (t1, node 5) and inside its rack
			// (t2, node 1); t3 (node 3) only talks to the unbound t4.
			taskNode: []int{0, 5, 1, 3, -1},
			pairs:    [][2]int{{0, 1}, {0, 2}, {3, 4}},
			base:     1, // the unbound t4
			want: map[string]int{
				"nic0": 2, "rack0": 2, // t0's half: NIC, rack and pod uplink
				"nic5": 2, "rack2": 2, "pod1": 2, // t1's half
				"nic1": 2,             // t2
				"nic3": 2, "rack1": 2, // t3: own up-chain, no other pod's link
				"pod0": 3, // t0 and t3
			},
		},
		{
			name: "torus",
			spec: "torus:3x3 pack:1 core:2 pu:1",
			// Dimension-order routes: 0→4 goes 0,3,4 and 4→0 goes 4,1,0 — a
			// task counts its whole path, so the two directions differ. t2 is
			// bound with the unbound partner t3: both count everywhere.
			taskNode: []int{0, 4, 8, -1, 7},
			pairs:    [][2]int{{0, 1}, {2, 3}},
			base:     2, // t2 and t3
			want: map[string]int{
				"0-3": 3, "3-4": 3, // t0
				"4-1": 3, "1-0": 3, // t1
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plat, err := numasim.NewPlatform(c.spec, numasim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			mach := plat.Machine()
			g := mach.FabricGraph()
			firstPU := make([]int, plat.Nodes())
			for pu := mach.Topology().NumPUs() - 1; pu >= 0; pu-- {
				firstPU[mach.ClusterNodeOfPU(pu)] = pu
			}
			a := unboundControls(make([]int, len(c.taskNode)), "table")
			for i, node := range c.taskNode {
				a.TaskPU[i] = -1
				if node >= 0 {
					a.TaskPU[i] = firstPU[node]
				}
			}
			m := comm.New(len(c.taskNode))
			for _, p := range c.pairs {
				m.AddSym(p[0], p[1], 1000)
			}
			SetFabricContention(mach, a, m)
			want := make([]int, g.NumEdges())
			for e := range want {
				want[e] = c.base
			}
			for name, n := range c.want {
				want[contentionEdge(t, g, name)] = n
			}
			declared := mach.Contention().Edges
			for e, edge := range g.Edges() {
				if got := declared[e]; got != want[e] {
					t.Errorf("edge %d (%d-%d): %d streams, want %d", e, edge.A, edge.B, got, want[e])
				}
			}
		})
	}
}

// TestRoundRobinNodesHeterogeneous is the regression test for the
// homogeneous core arithmetic: on an 8-core and a 4-core member, tasks dealt
// to node 1 used to land on cores 6 and 7 — still node 0.
func TestRoundRobinNodesHeterogeneous(t *testing.T) {
	plat, err := numasim.NewPlatform("node:{pack:2 core:4 | pack:1 core:4}", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := plat.Machine()
	// 10 tasks: node 1's four cores wrap once (tasks 1,3,5,7 then 9).
	a, err := RoundRobinNodes{}.Assign(mach, comm.Ring(10, 1000))
	if err != nil {
		t.Fatal(err)
	}
	wantPU := []int{0, 8, 1, 9, 2, 10, 3, 11, 4, 8}
	for i, pu := range a.TaskPU {
		if got, want := mach.ClusterNodeOfPU(pu), i%2; got != want {
			t.Errorf("task %d on node %d, want %d", i, got, want)
		}
		if pu != wantPU[i] {
			t.Errorf("task %d on PU %d, want %d", i, pu, wantPU[i])
		}
	}
}

// TestRoundRobinNodesArity requires rr-nodes' VirtualArity to equal the most
// tasks any PU holds. It used to divide the task count by the machine's
// cores, which on uneven nodes reported 1 while the small node's PUs held
// several tasks each.
func TestRoundRobinNodesArity(t *testing.T) {
	for _, c := range []struct {
		spec  string
		tasks int
		want  int
	}{
		{"cluster:2{pack:1 core:8 | pack:1 core:2}", 10, 3},
		{"node:{pack:2 core:4 | pack:1 core:4}", 10, 2},
		{"cluster:2 pack:1 core:4", 9, 2},
		{"cluster:3 pack:1 core:2", 6, 1},
		{"pack:2 core:2", 5, 2},
	} {
		plat, err := numasim.NewPlatform(c.spec, numasim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		a, err := RoundRobinNodes{}.Assign(plat.Machine(), comm.Ring(c.tasks, 1000))
		if err != nil {
			t.Fatal(err)
		}
		perPU, most := map[int]int{}, 0
		for _, pu := range a.TaskPU {
			perPU[pu]++
			most = max(most, perPU[pu])
		}
		if most != c.want || a.VirtualArity != most {
			t.Errorf("%s, %d tasks: VirtualArity %d, a PU holds %d tasks, want %d", c.spec, c.tasks, a.VirtualArity, most, c.want)
		}
	}
}

// TestCapacityClasses pins the shared capacity→class numbering: first-seen
// order over the groups, then the nodes.
func TestCapacityClasses(t *testing.T) {
	entity, leaf := capacityClasses([]int{8, 4, 8}, []int{4, 16, 8})
	if fmt.Sprint(entity, leaf) != "[0 1 0] [1 2 0]" {
		t.Errorf("classes %v %v, want [0 1 0] [1 2 0]", entity, leaf)
	}
}

// blockRing is the matching workload of TestMatchGroupsModels: one block of
// tasks per entry of sizes, a heavy clique inside every block (so the
// node-level partition recovers the blocks), and a medium ring over the
// blocks in stride-3 order — block 3i talks to block 3(i+1), indices modulo
// the block count — which the positional group→node order scatters across
// the fabric. The block count must not be a multiple of 3.
func blockRing(sizes []int) *comm.Matrix {
	first := make([]int, len(sizes)+1)
	for b, s := range sizes {
		first[b+1] = first[b] + s
	}
	m := comm.New(first[len(sizes)])
	for b, s := range sizes {
		for i := 0; i < s; i++ {
			for j := i + 1; j < s; j++ {
				m.AddSym(first[b]+i, first[b]+j, 1000)
			}
		}
	}
	n := len(sizes)
	for i := 0; i < n; i++ {
		a, b := i*3%n, (i+1)*3%n
		m.AddSym(first[a], first[b], 100)
	}
	return m
}

// TestMatchGroupsModels pins the group→node decision under every distance
// model the matching stage is fed: none (flat fabric, positional order),
// Algorithm 1 on a balanced fabric tree, tree hops under capacity classes,
// routed latencies on an uneven tree, a torus (with its space-filling-curve
// seed) and a dragonfly, and the latency submatrix of a fragmented free-slot
// view. want is the cluster node of every task, block by block.
func TestMatchGroupsModels(t *testing.T) {
	cases := []struct {
		name string
		spec string
		// free, when set, is the free-slot view handed to AssignFreeSlots:
		// free[n] cores of node n, counted from the node's last core.
		free []int
		want string
	}{
		{name: "flat", spec: "cluster:4 pack:1 core:2 pu:1", want: "00112233"},
		{name: "rack", spec: "rack:2 node:4 pack:1 core:2 pu:1", want: "0044112255336677"},
		{name: "pod-hetero", spec: "pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}", want: "000000005555222222221111666666663333444444447777"},
		{name: "uneven-rack", spec: "rack:2 node:2,3 pack:1 core:2 pu:1", want: "0033112244"},
		{name: "torus", spec: "torus:4x4 pack:1 core:2 pu:1", want: "0099dd11aacc2266ff3355bb774488ee"},
		{name: "dragonfly", spec: "dragonfly:2,2,2 pack:1 core:2 pu:1", want: "0055331166224477"},
		{name: "free-slots", spec: "rack:2 node:4 pack:1 core:4 pu:1", free: []int{3, 1, 2, 3, 1, 2, 0, 3}, want: "000422333155777"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plat, err := numasim.NewPlatform(c.spec, numasim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			mach := plat.Machine()
			var a *Assignment
			if c.free == nil {
				sizes := make([]int, plat.Nodes())
				for n := range sizes {
					sizes[n] = plat.NodeCores(n)
				}
				a, err = Hierarchical{}.Assign(mach, blockRing(sizes))
			} else {
				all := nodeCoreLists(mach)
				free := make([][]int, len(all))
				var sizes []int
				for n, k := range c.free {
					free[n] = all[n][len(all[n])-k:]
					if k > 0 {
						sizes = append(sizes, k)
					}
				}
				a, err = AssignFreeSlots(mach, blockRing(sizes), free, treematch.Options{})
			}
			if err != nil {
				t.Fatal(err)
			}
			got := ""
			for _, pu := range a.TaskPU {
				got += fmt.Sprintf("%x", mach.ClusterNodeOfPU(pu))
			}
			if got != c.want {
				t.Errorf("task nodes %s, want %s", got, c.want)
			}
		})
	}
}
