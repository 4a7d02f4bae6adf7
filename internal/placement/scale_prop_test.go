package placement

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
)

// Property-based placement invariants for the datacenter-scale path: every
// task is placed exactly once on a real PU of the platform, no node receives
// more than its capacity-proportional share, and the worker-pool width does
// not change the assignment.

// placementCases pairs platforms with task matrices, spanning flat and
// racked fabrics, homogeneous and heterogeneous nodes, stencil and random
// inputs, with and without oversubscription.
func placementCases(t *testing.T) []struct {
	name  string
	spec  string
	m     *comm.Matrix
	nodes int
	caps  []int
} {
	t.Helper()
	return []struct {
		name  string
		spec  string
		m     *comm.Matrix
		nodes int
		caps  []int
	}{
		{"flat4-stencil", "cluster:4 pack:1 core:4", comm.Stencil2DSparse(4, 4, 64, 8), 4, []int{4, 4, 4, 4}},
		{"flat4-oversub", "cluster:4 pack:1 core:2", comm.Stencil2DSparse(6, 6, 64, 8), 4, []int{2, 2, 2, 2}},
		{"rack2-stencil", "rack:2 node:2 pack:1 core:4", comm.Stencil2DSparse(4, 4, 64, 8), 4, []int{4, 4, 4, 4}},
		{"hetero-random", "node:{pack:1 core:4 | pack:1 core:2 | pack:1 core:4 | pack:1 core:2}",
			comm.Random(24, 0.2, 100, 5), 4, []int{4, 2, 4, 2}},
		{"flat8-sparse-big", "cluster:8 pack:1 core:4", comm.Stencil2DSparse(16, 16, 64, 8), 8,
			[]int{4, 4, 4, 4, 4, 4, 4, 4}},
		// Node sizes that rise and fall in group order, so a pool worker's
		// sub-matrix and Mapper storage shrink and grow from one node to
		// the next; oversubscribed, with non-integer volumes.
		{"hetero-seesaw", "node:{pack:1 core:8 | pack:1 core:2 | pack:2 core:4 | pack:1 core:3 | pack:1 core:6 | pack:1 core:1}",
			comm.Random(40, 0.2, 97.3, 11), 6, []int{8, 2, 8, 3, 6, 1}},
	}
}

func TestHierarchicalPlacementInvariants(t *testing.T) {
	for _, tc := range placementCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			plat, err := numasim.NewPlatform(tc.spec, numasim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			mach := plat.Machine()
			topo := mach.Topology()
			a, err := Hierarchical{}.Assign(mach, tc.m)
			if err != nil {
				t.Fatal(err)
			}
			p := tc.m.Order()
			if len(a.TaskPU) != p {
				t.Fatalf("placed %d tasks, want %d", len(a.TaskPU), p)
			}
			// Exactly once on a real PU: TaskPU has one entry per task and
			// every entry names an in-range PU.
			perNode := make([]int, tc.nodes)
			for task, pu := range a.TaskPU {
				if pu < 0 || pu >= topo.NumPUs() {
					t.Fatalf("task %d on PU %d, out of range [0,%d)", task, pu, topo.NumPUs())
				}
				obj := topo.PUs()[pu]
				node := topo.ClusterNodeOf(obj)
				if node == nil {
					t.Fatalf("task %d: PU %d has no cluster node", task, pu)
				}
				perNode[node.LevelIndex]++
			}
			// Capacity: each node's task count stays within its
			// capacity-proportional share (largest-remainder apportionment
			// rounds up by at most one).
			total := 0
			for _, c := range tc.caps {
				total += c
			}
			for n, got := range perNode {
				share := p*tc.caps[n]/total + 1
				if got > share {
					t.Errorf("node %d holds %d tasks, capacity share is %d", n, got, share)
				}
			}
		})
	}
}

// TestHierarchicalWorkerCountInvariant: the worker pool is the only per-node
// execution path, so a pool of one is the sequential order, and the
// assignment is the same at 2 and 4 workers, at GOMAXPROCS (0) and with
// more workers than groups. Each worker reuses its working set for the
// nodes it maps, which this holds to the single worker's results whichever
// nodes a worker happens to take.
func TestHierarchicalWorkerCountInvariant(t *testing.T) {
	for _, tc := range placementCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			plat, err := numasim.NewPlatform(tc.spec, numasim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Hierarchical{Workers: 1}.Assign(plat.Machine(), tc.m)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 4, 0, 8} {
				par, err := Hierarchical{Workers: workers}.Assign(plat.Machine(), tc.m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seq, par) {
					t.Errorf("assignment with %d workers differs from 1 worker", workers)
				}
			}
		})
	}
}

// TestHierarchicalStencil80 keeps the 80×80 cliff closed in tier-1: with the
// refinement pricing every pair of the 100 groups through m.At this one
// placement took 56 s (90×90 took 0.4 s), so a return of the dense rescan is
// a test timeout rather than a number nobody runs. Output-checked the way the
// benchmark's place-scale workload is: every task once on a real PU, at most
// 64 per node.
func TestHierarchicalStencil80(t *testing.T) {
	plat, err := numasim.NewPlatform("cluster:100 pack:1 core:8", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mach := plat.Machine()
	m := comm.Stencil2DSparse(80, 80, 64, 8)
	a, err := Hierarchical{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.TaskPU) != m.Order() {
		t.Fatalf("placed %d tasks, want %d", len(a.TaskPU), m.Order())
	}
	perNode := make([]int, 100)
	for task, pu := range a.TaskPU {
		if pu < 0 || pu >= mach.Topology().NumPUs() {
			t.Fatalf("task %d on PU %d, out of range", task, pu)
		}
		perNode[mach.ClusterNodeOfPU(pu)]++
	}
	for n, got := range perNode {
		if got > 64 {
			t.Errorf("node %d holds %d tasks, want at most 64", n, got)
		}
	}
}

// TestHierarchicalSequentialAllocs pins the allocations of a whole
// single-worker placement of 80 tasks of a degree-8 random graph on eight
// 8-core nodes: the partition portfolio, the group→node matching and ten
// oversubscribed per-node mappings on one reused working set. Before the
// pool's workers kept their sub-matrix storage and Mapper it cost 2 019, and
// 937 (881 on 386) before expand and the coarsening's cover took one array
// each, 471 (463 on 386) while every fill tested the matrix's symmetry, and
// 423 before boundary KL shared one label and position table; it costs 368
// (360 on 386) at every GOMAXPROCS, as AllocsPerRun measures on one
// processor. The bound leaves room for two more, as the race detector now
// and then adds one.
func TestHierarchicalSequentialAllocs(t *testing.T) {
	plat, err := numasim.NewPlatform("cluster:8 pack:1 core:8", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := comm.RandomSparse(80, 8, 100, 1)
	place := func() {
		if _, err := (Hierarchical{Workers: 1}).Assign(plat.Machine(), m); err != nil {
			t.Fatal(err)
		}
	}
	place()
	if allocs := testing.AllocsPerRun(5, place); allocs > 370 {
		t.Errorf("%v allocations per placement, want ≤ 370", allocs)
	}
}

// TestHierarchicalAssignBytes pins the bytes of TestHierarchicalSequentialAllocs'
// placement at pools of 1, 2 and 4 workers exactly, every one of ten
// placements, on the 64-bit and the 32-bit ports. Its level-1 portfolio
// lies below multilevelMinOrder, so GOMAXPROCS sizes nothing in it, and
// worker w maps groups w, w+W, …, so every worker keeps its own sub-matrix
// storage and Mapper (about 5.5 KB for these 10-task nodes) at any
// goroutine timing. The pool's size is the policy's Workers field, not
// GOMAXPROCS, so the placement is measured on one processor with the
// collector off: with more, the portfolio's candidates (goroutines of their
// own from concurrentMinOrder on) now and then find no goroutine or
// channel-wait record of the runtime's to reuse, and one placement read up
// to 8 KB more, which measures the scheduler, not the placement.
func TestHierarchicalAssignBytes(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates beside the placement; the bytes are pinned without it")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	plat, err := numasim.NewPlatform("cluster:8 pack:1 core:8", numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := comm.RandomSparse(80, 8, 100, 1)
	for _, pin := range []struct {
		workers int
		bytes64 uint64
		bytes32 uint64
	}{{1, 134_456, 101_312}, {2, 139_928, 105_112}, {4, 150_856, 112_728}} {
		want := pin.bytes64
		if strconv.IntSize == 32 {
			want = pin.bytes32
		}
		place := func() {
			if _, err := (Hierarchical{Workers: pin.workers}).Assign(plat.Machine(), m); err != nil {
				t.Fatal(err)
			}
		}
		place()
		for i := range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			place()
			runtime.ReadMemStats(&after)
			if got := after.TotalAlloc - before.TotalAlloc; got != want {
				t.Errorf("%d workers, placement %d: %d bytes, want %d", pin.workers, i, got, want)
			}
		}
	}
}
