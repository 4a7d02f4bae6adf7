package placement

import (
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/treematch"
)

// nodeCoreLists returns the core level indices of every cluster node, the
// free-slot view of an entirely empty machine.
func nodeCoreLists(mach *numasim.Machine) [][]int {
	topo := mach.Topology()
	out := make([][]int, topo.NumClusterNodes())
	for c, core := range topo.Cores() {
		cn := topo.ClusterNodeOf(core)
		for n, node := range topo.ClusterNodes() {
			if cn == node {
				out[n] = append(out[n], c)
				break
			}
		}
	}
	return out
}

func subsetMachine(t *testing.T, spec string) *numasim.Machine {
	t.Helper()
	plat, err := numasim.NewPlatform(spec, numasim.Config{})
	if err != nil {
		t.Fatalf("platform %q: %v", spec, err)
	}
	return plat.Machine()
}

// TestAssignFreeSlotsRespectsSubset: tasks land only on the offered slots,
// each slot at most once.
func TestAssignFreeSlotsRespectsSubset(t *testing.T) {
	mach := subsetMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	topo := mach.Topology()
	all := nodeCoreLists(mach)

	// Only nodes 2 and 3 (rack 1) offer slots, and node 2 only half its cores.
	free := make([][]int, len(all))
	free[2] = all[2][:2]
	free[3] = all[3]

	m := comm.Stencil2DSparse(3, 2, 64, 8)
	a, err := AssignFreeSlots(mach, m, free, treematch.Options{})
	if err != nil {
		t.Fatalf("AssignFreeSlots: %v", err)
	}
	allowed := map[int]bool{}
	for _, c := range append(append([]int{}, free[2]...), free[3]...) {
		allowed[topo.Cores()[c].Children[0].OSIndex] = true
	}
	used := map[int]bool{}
	for task, pu := range a.TaskPU {
		if !allowed[pu] {
			t.Fatalf("task %d placed on PU %d outside the free slots", task, pu)
		}
		if used[pu] {
			t.Fatalf("PU %d used twice", pu)
		}
		used[pu] = true
	}
}

// TestAssignFreeSlotsAffinity: with exactly two free cores on each of two
// nodes and two heavy pairs, each pair shares a node — the cross-node cut
// carries only the light coupling.
func TestAssignFreeSlotsAffinity(t *testing.T) {
	mach := subsetMachine(t, "cluster:4 pack:1 core:4 pu:1")
	all := nodeCoreLists(mach)

	free := make([][]int, len(all))
	free[1] = all[1][1:3]
	free[3] = all[3][2:]

	// Tasks 0-1 and 2-3 are the heavy pairs; pairs couple lightly.
	m := comm.New(4)
	m.AddSym(0, 1, 1000)
	m.AddSym(2, 3, 1000)
	m.AddSym(1, 2, 1)

	a, err := AssignFreeSlots(mach, m, free, treematch.Options{})
	if err != nil {
		t.Fatalf("AssignFreeSlots: %v", err)
	}
	node := func(task int) int {
		return mach.ClusterNodeOfPU(a.TaskPU[task])
	}
	if node(0) != node(1) || node(2) != node(3) {
		t.Fatalf("heavy pairs split across nodes: %v -> nodes %d %d %d %d",
			a.TaskPU, node(0), node(1), node(2), node(3))
	}
	if node(0) == node(2) {
		t.Fatalf("both pairs on node %d despite 2-core capacity", node(0))
	}
}

// TestAssignFreeSlotsSingleNodeFragmented: a job mapped inside one node onto
// a non-contiguous slot set stays on exactly those cores.
func TestAssignFreeSlotsSingleNodeFragmented(t *testing.T) {
	mach := subsetMachine(t, "cluster:2 pack:2 core:4 pu:1")
	topo := mach.Topology()
	all := nodeCoreLists(mach)

	free := make([][]int, len(all))
	free[0] = []int{all[0][0], all[0][2], all[0][5], all[0][7]}

	m := comm.Ring(3, 100)
	a, err := AssignFreeSlots(mach, m, free, treematch.Options{})
	if err != nil {
		t.Fatalf("AssignFreeSlots: %v", err)
	}
	allowed := map[int]bool{}
	for _, c := range free[0] {
		allowed[topo.Cores()[c].Children[0].OSIndex] = true
	}
	for task, pu := range a.TaskPU {
		if !allowed[pu] {
			t.Fatalf("task %d on PU %d, outside fragment", task, pu)
		}
	}
}

func TestAssignFreeSlotsErrors(t *testing.T) {
	mach := subsetMachine(t, "cluster:2 pack:1 core:2 pu:1")
	all := nodeCoreLists(mach)

	cases := []struct {
		name string
		m    *comm.Matrix
		free [][]int
		want string
	}{
		{"too-many-tasks", comm.Ring(5, 1), [][]int{all[0], all[1]}, "exceed"},
		{"wrong-node", comm.Ring(2, 1), [][]int{all[1], nil}, "not on cluster node"},
		{"duplicate-slot", comm.Ring(2, 1), [][]int{{all[0][0], all[0][0]}, nil}, "listed twice"},
		{"short-view", comm.Ring(2, 1), [][]int{all[0]}, "covers 1 nodes"},
		{"out-of-range", comm.Ring(2, 1), [][]int{{99}, nil}, "not on cluster node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := AssignFreeSlots(mach, tc.m, tc.free, treematch.Options{}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}
