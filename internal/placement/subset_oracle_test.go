package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/treematch"
)

// oracleAssignFreeSlots is AssignFreeSlots as it stood before SlotMapper kept
// a working set: a fresh sub-matrix (Submatrix) per group, a fresh padding
// view, a distance table of one slice per row and a fresh
// treematch.AssignByDistance per node. It reports its control threads as
// unbound (unboundControls), and leaves input validation to Assign. It is
// the oracle a reused SlotMapper must match.
func oracleAssignFreeSlots(mach *numasim.Machine, m *comm.Matrix, free [][]int, opts treematch.Options) (*Assignment, error) {
	topo := mach.Topology()
	var active []int
	for n, slots := range free {
		if len(slots) > 0 {
			active = append(active, n)
		}
	}
	p := m.Order()
	a := unboundControls(make([]int, p), "subset")
	if p == 0 {
		return a, nil
	}
	if len(active) == 1 {
		local, err := oracleMapOntoFreeCores(mach, m, free[active[0]])
		if err != nil {
			return nil, err
		}
		for t, c := range local {
			a.TaskPU[t] = firstPU(topo, c)
		}
		return a, nil
	}
	caps := make([]int, len(active))
	for i, n := range active {
		caps[i] = len(free[n])
	}
	groups, groupMatrix, err := treematch.PartitionAcrossWeightedMatrix(m, caps, opts)
	if err != nil {
		return nil, err
	}
	latency := topo.FabricGraph().LatencyMatrix()
	between := func(i, j int) float64 { return latency[active[i]][active[j]] }
	nodeOf, err := matchGroups(between, groupMatrix, caps, caps)
	if err != nil {
		return nil, err
	}
	for g, tasks := range groups {
		if len(tasks) == 0 {
			continue
		}
		sub, err := m.Submatrix(tasks)
		if err != nil {
			return nil, err
		}
		local, err := oracleMapOntoFreeCores(mach, sub, free[active[nodeOf[g]]])
		if err != nil {
			return nil, err
		}
		for i, task := range tasks {
			a.TaskPU[task] = firstPU(topo, local[i])
		}
	}
	return a, nil
}

// oracleMapOntoFreeCores is mapOntoFreeCores in fresh memory.
func oracleMapOntoFreeCores(mach *numasim.Machine, m *comm.Matrix, slots []int) ([]int, error) {
	p := m.Order()
	topo := mach.Topology()
	ext := m
	if p < len(slots) {
		var err error
		ext, err = m.PadView(new(comm.Storage), len(slots))
		if err != nil {
			return nil, err
		}
	}
	dist := make([][]float64, len(slots))
	for i, ci := range slots {
		dist[i] = make([]float64, len(slots))
		for j, cj := range slots {
			if i != j {
				dist[i][j] = float64(topo.HopDistance(topo.Cores()[ci], topo.Cores()[cj]))
			}
		}
	}
	assignment, err := treematch.AssignByDistance(dist, ext, nil, nil)
	if err != nil {
		return nil, err
	}
	out := make([]int, p)
	for t := range out {
		out[t] = slots[assignment[t]]
	}
	return out, nil
}

// slotCase is one free-slot placement: a matrix, and a view of the
// machine's free cores.
type slotCase struct {
	name string
	mach *numasim.Machine
	m    *comm.Matrix
	free [][]int
}

// view picks, from the per-node core lists, the cores whose positions are
// listed for each node (nil: none).
func view(all [][]int, picks map[int][]int) [][]int {
	free := make([][]int, len(all))
	for n, pos := range picks {
		for _, q := range pos {
			free[n] = append(free[n], all[n][q])
		}
	}
	return free
}

// span is 0, 1, ..., n-1.
func span(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// slotCases lists single-node and multi-node placements, equal and mixed
// free capacities, whole and fragmented nodes, padded and exact fits, on
// two machines: the sched-fifo platform and a smaller two-rack one.
func slotCases(t *testing.T) []slotCase {
	t.Helper()
	fifo := subsetMachine(t, "rack:2 node:4 pack:2 core:4 pu:1")
	small := subsetMachine(t, "rack:2 node:2 pack:1 core:4 pu:1")
	fa, sa := nodeCoreLists(fifo), nodeCoreLists(small)
	return []slotCase{
		{"ring6-onto-8", fifo, comm.Ring(6, 100), view(fa, map[int][]int{3: span(8)})},
		{"stencil4x3-onto-8+6", fifo, comm.Stencil2DSparse(4, 3, 4096, 512), view(fa, map[int][]int{0: span(8), 1: {0, 2, 3, 4, 6, 7}})},
		{"ring3-fragment", fifo, comm.Ring(3, 100), view(fa, map[int][]int{5: {0, 2, 5, 7}})},
		{"stencil4x4-two-whole", fifo, comm.Stencil2DSparse(4, 4, 4096, 512), view(fa, map[int][]int{2: span(8), 6: span(8)})},
		{"pair-exact", fifo, comm.Ring(2, 7), view(fa, map[int][]int{1: {3, 4}})},
		{"random12-mixed-three", fifo, comm.RandomSparse(12, 3, 100, 5), view(fa, map[int][]int{0: {1, 2, 3}, 4: span(8), 7: {0, 7}})},
		{"stencil8x2-eight-nodes", fifo, comm.Stencil2DSparse(8, 2, 4096, 512),
			view(fa, map[int][]int{0: {0, 1}, 1: {2, 3}, 2: {4, 5}, 3: {6, 7}, 4: {0, 4}, 5: {1, 5}, 6: {2, 6}, 7: {3, 7}})},
		{"one-task", fifo, comm.New(1), view(fa, map[int][]int{6: {5}})},
		{"empty", fifo, comm.New(0), view(fa, map[int][]int{0: {0}})},
		{"small-stencil3x2", small, comm.Stencil2DSparse(3, 2, 64, 8), view(sa, map[int][]int{2: {0, 1}, 3: span(4)})},
		{"small-equal", small, comm.Ring(8, 10), view(sa, map[int][]int{0: span(4), 3: span(4)})},
		{"small-single", small, comm.Ring(4, 10), view(sa, map[int][]int{1: span(4)})},
	}
}

// requireSlotOracle fails unless s places c as the oracle does, and returns
// the assignment.
func requireSlotOracle(t *testing.T, s *SlotMapper, c slotCase) *Assignment {
	t.Helper()
	got, err := s.Assign(c.mach, c.m, c.free, treematch.Options{})
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	want, err := oracleAssignFreeSlots(c.mach, c.m, c.free, treematch.Options{})
	if err != nil {
		t.Fatalf("%s: oracle: %v", c.name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: reused SlotMapper gives %+v, the oracle %+v", c.name, got, want)
	}
	return got
}

// TestSlotMapperMatchesOracle runs every case through one SlotMapper, in
// order and then in reverse, so job sizes and views grow and shrink, and
// requires each result to equal the oracle's. A result kept from earlier
// must not change while the mapper maps on, and a caller that scribbles on
// a returned TaskPU must not change the next result.
func TestSlotMapperMatchesOracle(t *testing.T) {
	cases := slotCases(t)
	back := slices.Clone(cases)
	slices.Reverse(back)
	cases = append(cases, back...)
	var s SlotMapper
	var kept []*Assignment
	for _, c := range cases {
		got := requireSlotOracle(t, &s, c)
		kept = append(kept, got)
		again := requireSlotOracle(t, &s, c)
		for i := range again.TaskPU {
			again.TaskPU[i] = -7
		}
	}
	for i, c := range cases {
		want, err := oracleAssignFreeSlots(c.mach, c.m, c.free, treematch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(kept[i], want) {
			t.Errorf("%s: result changed after the SlotMapper mapped on", c.name)
		}
	}
}

// TestSlotMapperLeavesFreeAlone pins what lets the scheduler hand Assign
// its live free lists instead of copies: Assign neither writes the view nor
// keeps any of it. Every case runs through one SlotMapper on a view whose
// lists have spare capacity, as the capacity index's do; the view must come
// back as it went in, spare capacity included, and scribbling on it
// afterwards must change neither the result nor the next placement.
func TestSlotMapperLeavesFreeAlone(t *testing.T) {
	var s SlotMapper
	for _, c := range slotCases(t) {
		live := make([][]int, len(c.free))
		for n, slots := range c.free {
			if slots != nil {
				live[n] = append(make([]int, 0, len(slots)+4), slots...)
			}
		}
		snapshot := make([][]int, len(live))
		for n := range live {
			snapshot[n] = slices.Clone(live[n][:cap(live[n])])
		}
		got, err := s.Assign(c.mach, c.m, live, treematch.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for n := range live {
			if !slices.Equal(live[n][:cap(live[n])], snapshot[n]) {
				t.Fatalf("%s: node %d's free list went in as %v, came out %v", c.name, n, snapshot[n], live[n][:cap(live[n])])
			}
			for i := range live[n] {
				live[n][i] = -1
			}
		}
		want, err := oracleAssignFreeSlots(c.mach, c.m, c.free, treematch.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the result changed when the view was scribbled on", c.name)
		}
	}
}

// TestAssignFreeSlotsControls pins how a free-slot placement reports its
// control threads: unmapped, every one, at virtual arity 1 — also for an
// empty job.
func TestAssignFreeSlotsControls(t *testing.T) {
	for _, c := range slotCases(t) {
		a, err := AssignFreeSlots(c.mach, c.m, c.free, treematch.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Policy != "subset" || a.Strategy != treematch.ControlUnmapped || a.VirtualArity != 1 ||
			len(a.ControlPU) != c.m.Order() || slices.ContainsFunc(a.ControlPU, func(pu int) bool { return pu != -1 }) {
			t.Errorf("%s: %+v, want policy subset, unmapped controls at arity 1", c.name, a)
		}
	}
}

// TestSlotMapperAllocs pins a warmed SlotMapper's work on the loop's
// critical path. Before it kept a working set, the single-node case (a
// 6-task ring onto 8 free cores) cost 35 allocations and the two-node case
// (a 4×3 stencil onto 8 + 6 free cores) 142; 6 and 76 while it still
// rebuilt the node layout on every call, 4 and 74 while the partition
// portfolio and the group matching ran in fresh memory, 4 and 23 while
// the spectral split made two id lists, and 4 and 22 while every fill
// tested the matrix's symmetry. What remains is the
// result, the matcher's result per node and the group matching's, and,
// across nodes, what TestMapperPartitionAllocs pins for the portfolio.
func TestSlotMapperAllocs(t *testing.T) {
	cases := slotCases(t)
	for _, pin := range []struct {
		c    slotCase
		most float64
	}{{cases[0], 4}, {cases[1], 21}} {
		var s SlotMapper
		requireSlotOracle(t, &s, pin.c)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Assign(pin.c.mach, pin.c.m, pin.c.free, treematch.Options{}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", pin.c.name, allocs)
		if allocs > pin.most {
			t.Errorf("%s: %.0f allocations per warmed call, want <= %.0f", pin.c.name, allocs, pin.most)
		}
	}
}

// decodeSlotCase turns bytes into a placement on the sched-fifo platform:
// a sparse matrix of any order but other, and the free cores of up to three
// nodes as masks, enough of them overall for the tasks.
func decodeSlotCase(mach *numasim.Machine, all [][]int, data []byte, other int) (slotCase, []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	free := make([][]int, len(all))
	nodes, total := next()%3+1, 0
	for k := 0; k < nodes; k++ {
		n := next() % len(all)
		mask := next() | 1
		free[n] = free[n][:0]
		for q, c := range all[n] {
			if mask&(1<<q) != 0 {
				free[n] = append(free[n], c)
			}
		}
	}
	for _, slots := range free {
		total += len(slots)
	}
	p := next() % (total + 1)
	if p == other {
		p = (p + 1) % (total + 1)
	}
	m := comm.New(p)
	for edges := next() % 24; edges > 0 && p > 1; edges-- {
		i, j, v := next()%p, next()%p, next()
		if i != j {
			m.AddSym(i, j, float64(v+1))
		}
	}
	return slotCase{fmt.Sprintf("%d tasks on %v", p, free), mach, m, free}, data
}

// FuzzSlotMapperMatchesOracle decodes two placements from each input, of
// different sizes, runs both through one SlotMapper in turn and compares
// each with the oracle.
func FuzzSlotMapperMatchesOracle(f *testing.F) {
	f.Add([]byte{1, 3, 0xff, 6, 12, 0, 1, 9, 1, 2, 9, 0, 5, 200, 2, 0, 0x0f, 5, 0x3c, 4, 6, 0, 1, 50, 1, 2, 50})
	f.Add([]byte{2, 0, 0xff, 1, 0xff, 2, 0x81, 12, 20, 0, 1, 5, 2, 3, 5, 0, 3, 0x05, 2, 1, 0, 1, 3})
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 64)
	rng.Read(seed)
	f.Add(seed)
	mach, err := numasim.NewPlatform("rack:2 node:4 pack:2 core:4 pu:1", numasim.Config{})
	if err != nil {
		f.Fatal(err)
	}
	all := nodeCoreLists(mach.Machine())
	f.Fuzz(func(t *testing.T, data []byte) {
		first, rest := decodeSlotCase(mach.Machine(), all, data, -1)
		second, _ := decodeSlotCase(mach.Machine(), all, rest, first.m.Order())
		var s SlotMapper
		requireSlotOracle(t, &s, first)
		requireSlotOracle(t, &s, second)
	})
}
