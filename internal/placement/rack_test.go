package placement

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
)

// rackMachine builds the fused machine of a 2-rack × 2-node cluster with 4
// cores per node.
func rackMachine(t *testing.T) *numasim.Machine {
	t.Helper()
	c, err := numasim.NewPlatform("rack:2 cluster:2 pack:1 core:4 pu:1", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c.Machine()
}

// linkStreams reads the declared stream count of link i at tree-fabric level
// `level` (0: cluster node i's NIC, 1: rack i's uplink).
func linkStreams(mach *numasim.Machine, level, i int) int {
	return mach.Contention().Edges[mach.FabricGraph().LevelEdges(level)[i]]
}

// pairBlockMatrix builds 4 blocks of `c` tasks with heavy intra-block
// coupling and a medium slot-to-slot exchange between blocks (0,2) and
// (1,3): the partner blocks must share a rack under fabric-aware placement.
func pairBlockMatrix(c int) *comm.Matrix {
	m := comm.New(4 * c)
	for b := 0; b < 4; b++ {
		for i := 0; i < c; i++ {
			for j := i + 1; j < c; j++ {
				m.AddSym(b*c+i, b*c+j, 100)
			}
		}
	}
	for b := 0; b < 2; b++ {
		for i := 0; i < c; i++ {
			m.AddSym(b*c+i, (b+2)*c+i, 10)
		}
	}
	return m
}

// TestHierarchicalFabricMatch: on a multi-switch fabric the aggregated group
// matrix is treematch-mapped onto the fabric tree, so partner blocks land in
// the same rack; with NoFabricMatch group g stays pinned to node g and the
// partners straddle the rack split.
func TestHierarchicalFabricMatch(t *testing.T) {
	mach := rackMachine(t)
	m := pairBlockMatrix(4)

	rackOfBlock := func(a *Assignment, b int) map[int]bool {
		racks := map[int]bool{}
		for i := 0; i < 4; i++ {
			node := mach.ClusterNodeOfPU(a.TaskPU[b*4+i])
			racks[mach.RackOfClusterNode(node)] = true
		}
		return racks
	}

	aware, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		ra, rb := rackOfBlock(aware, pair[0]), rackOfBlock(aware, pair[1])
		if len(ra) != 1 || len(rb) != 1 {
			t.Fatalf("block split across racks: %v %v", ra, rb)
		}
		for r := range ra {
			if !rb[r] {
				t.Errorf("fabric-aware placement split partner blocks %v across racks %v vs %v", pair, ra, rb)
			}
		}
	}

	blind, err := Hierarchical{NoFabricMatch: true}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	split := 0
	for _, pair := range [][2]int{{0, 2}, {1, 3}} {
		ra, rb := rackOfBlock(blind, pair[0]), rackOfBlock(blind, pair[1])
		for r := range ra {
			if !rb[r] {
				split++
			}
		}
	}
	if split == 0 {
		t.Error("NoFabricMatch kept partner blocks together; the blind arm should pin group g to node g")
	}
}

// TestHierarchicalFlatFabricIdentity: on a single-switch fabric every
// group→node assignment prices identically, so the identity is kept and the
// assignment matches the NoFabricMatch variant exactly (A9 results stay
// bit-stable).
func TestHierarchicalFlatFabricIdentity(t *testing.T) {
	c, err := numasim.NewPlatform("cluster:4 pack:1 core:4 pu:1", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := c.Machine()
	m := pairBlockMatrix(4)
	a, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Hierarchical{NoFabricMatch: true}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.TaskPU {
		if a.TaskPU[i] != b.TaskPU[i] {
			t.Fatalf("task %d: %d vs %d — flat fabric must keep the identity mapping", i, a.TaskPU[i], b.TaskPU[i])
		}
	}
}

// TestSetFabricContentionPerLink checks the per-link stream derivation: NIC
// counts reflect each node's crossing tasks and uplink counts only the
// rack-crossing ones.
func TestSetFabricContentionPerLink(t *testing.T) {
	mach := rackMachine(t)
	// 8 tasks, one per core pair: tasks 0..3 on node 0's cores, tasks 4..7 on
	// node 2's cores (other rack). Volumes: 0↔4 and 1↔5 cross the racks;
	// 2↔3 stays on node 0.
	m := comm.New(8)
	m.AddSym(0, 4, 5)
	m.AddSym(1, 5, 5)
	m.AddSym(2, 3, 5)
	a := &Assignment{TaskPU: make([]int, 8), ControlPU: make([]int, 8)}
	topo := mach.Topology()
	for i := 0; i < 4; i++ {
		a.TaskPU[i] = topo.Cores()[i].Children[0].OSIndex     // node 0
		a.TaskPU[4+i] = topo.Cores()[8+i].Children[0].OSIndex // node 2
		a.ControlPU[i], a.ControlPU[4+i] = -1, -1
	}
	SetFabricContention(mach, a, m)
	if got := linkStreams(mach, 0, 0); got != 2 {
		t.Errorf("NIC streams node 0 = %d, want 2 (tasks 0 and 1 cross)", got)
	}
	if got := linkStreams(mach, 0, 2); got != 2 {
		t.Errorf("NIC streams node 2 = %d, want 2 (tasks 4 and 5 cross)", got)
	}
	if got := linkStreams(mach, 0, 1) + linkStreams(mach, 0, 3); got != 0 {
		t.Errorf("idle nodes carry %d NIC streams, want 0", got)
	}
	if got, want := linkStreams(mach, 1, 0), 2; got != want {
		t.Errorf("uplink streams rack 0 = %d, want %d", got, want)
	}
	if got, want := linkStreams(mach, 1, 1), 2; got != want {
		t.Errorf("uplink streams rack 1 = %d, want %d", got, want)
	}
}

// TestSetFabricContentionZeroVolumeTask: a task that exchanges no volume
// contributes no stream, bound or unbound — the old global model's guard,
// which the per-link derivation must preserve.
func TestSetFabricContentionZeroVolumeTask(t *testing.T) {
	mach := rackMachine(t)
	m := comm.New(3)
	m.AddSym(0, 1, 5) // task 2 has no traffic at all
	topo := mach.Topology()
	a := &Assignment{
		TaskPU:    []int{topo.Cores()[0].Children[0].OSIndex, topo.Cores()[8].Children[0].OSIndex, -1},
		ControlPU: []int{-1, -1, -1},
	}
	SetFabricContention(mach, a, m)
	// Tasks 0 and 1 cross the racks (nodes 0 and 2); the silent unbound
	// task 2 must not inflate any link.
	if got := linkStreams(mach, 0, 0); got != 1 {
		t.Errorf("NIC streams node 0 = %d, want 1 (only task 0)", got)
	}
	if got := linkStreams(mach, 0, 1); got != 0 {
		t.Errorf("NIC streams idle node 1 = %d, want 0 — the zero-volume unbound task must not count", got)
	}
	if got := linkStreams(mach, 1, 0); got != 1 {
		t.Errorf("uplink streams rack 0 = %d, want 1", got)
	}
}

// TestSetFabricContentionUnboundRoams: an unbound task with traffic counts
// on every link, the conservative reading of the old global model.
func TestSetFabricContentionUnboundRoams(t *testing.T) {
	mach := rackMachine(t)
	m := comm.New(2)
	m.AddSym(0, 1, 5)
	a := &Assignment{TaskPU: []int{-1, mach.Topology().Cores()[0].Children[0].OSIndex}, ControlPU: []int{-1, -1}}
	SetFabricContention(mach, a, m)
	for n := 0; n < 4; n++ {
		if linkStreams(mach, 0, n) < 1 {
			t.Errorf("node %d NIC saw no stream from the roaming task", n)
		}
	}
	for r := 0; r < 2; r++ {
		if linkStreams(mach, 1, r) < 1 {
			t.Errorf("rack %d uplink saw no stream from the roaming task", r)
		}
	}
}
