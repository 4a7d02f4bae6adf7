package placement

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/kernels"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
	"repro/internal/treematch"
)

func machine(t *testing.T, spec string) *numasim.Machine {
	t.Helper()
	top, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := numasim.New(top, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPolicyNames(t *testing.T) {
	for _, tc := range []struct {
		p    Policy
		want string
	}{
		{TreeMatch{}, "treematch"},
		{Compact{}, "compact"},
		{Scatter{}, "scatter"},
		{Random{}, "random"},
		{NoBind{}, "nobind"},
	} {
		if tc.p.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.p.Name(), tc.want)
		}
	}
}

func TestPoliciesRequireMachine(t *testing.T) {
	m := comm.Ring(4, 1)
	for _, p := range []Policy{TreeMatch{}, Compact{}, Scatter{}, Random{}} {
		if _, err := p.Assign(nil, m); err == nil {
			t.Errorf("%s accepted nil machine", p.Name())
		}
	}
	// NoBind works without a machine.
	if _, err := (NoBind{}).Assign(nil, m); err != nil {
		t.Errorf("nobind: %v", err)
	}
}

func TestTreeMatchAssignClustersStencil(t *testing.T) {
	mach := machine(t, "pack:4 l3:1 core:4 pu:1")
	m := comm.Stencil2DSparse(4, 4, 1000, 10)
	a, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualArity != 1 {
		t.Errorf("VirtualArity = %d", a.VirtualArity)
	}
	// All PUs distinct and in range.
	seen := map[int]bool{}
	topo := mach.Topology()
	for i, pu := range a.TaskPU {
		if pu < 0 || pu >= topo.NumPUs() || seen[pu] {
			t.Fatalf("TaskPU[%d] = %d invalid or reused", i, pu)
		}
		seen[pu] = true
	}
	// Count inter-socket stencil volume: TreeMatch must keep most of the
	// volume inside sockets (16 blocks on 4 sockets: optimal tiling cuts
	// well under half the total).
	var cut, total float64
	for i := 0; i < m.Order(); i++ {
		for j := 0; j < m.Order(); j++ {
			if i == j {
				continue
			}
			total += m.At(i, j)
			if !topo.SameNUMANode(topo.PU(a.TaskPU[i]), topo.PU(a.TaskPU[j])) {
				cut += m.At(i, j)
			}
		}
	}
	if cut > total/2 {
		t.Errorf("treematch cut %v of %v inter-socket", cut, total)
	}
	// No SMT: control threads cannot be hyperthread-paired and there are no
	// spare cores (16 tasks, 16 cores) -> unmapped.
	if a.Strategy != treematch.ControlUnmapped {
		t.Errorf("strategy = %v", a.Strategy)
	}
}

func TestTreeMatchHyperthreadControls(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:4 pu:2")
	m := comm.Ring(8, 100)
	a, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != treematch.ControlHyperthread {
		t.Fatalf("strategy = %v, want hyperthread", a.Strategy)
	}
	topo := mach.Topology()
	for i := range a.TaskPU {
		tp, cp := topo.PU(a.TaskPU[i]), topo.PU(a.ControlPU[i])
		if tp.Ancestor(topology.Core) != cp.Ancestor(topology.Core) {
			t.Errorf("task %d: control thread not on the co-hyperthread", i)
		}
		if a.TaskPU[i] == a.ControlPU[i] {
			t.Errorf("task %d: control thread on the same PU", i)
		}
	}
}

func TestTreeMatchSpareCoreControls(t *testing.T) {
	mach := machine(t, "pack:2 core:4 pu:1") // 8 cores, 4 tasks
	m := comm.Ring(4, 100)
	a, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != treematch.ControlSpareCores {
		t.Fatalf("strategy = %v, want spare-cores", a.Strategy)
	}
	used := map[int]bool{}
	for i := range a.TaskPU {
		if a.ControlPU[i] < 0 {
			t.Errorf("task %d control unmapped despite spare cores", i)
			continue
		}
		for _, pu := range []int{a.TaskPU[i], a.ControlPU[i]} {
			if used[pu] {
				t.Errorf("PU %d used twice", pu)
			}
			used[pu] = true
		}
	}
}

func TestBaselineShapes(t *testing.T) {
	mach := machine(t, "pack:4 core:4 pu:1") // 16 cores
	m := comm.Ring(16, 1)
	topo := mach.Topology()

	ca, err := Compact{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	// Compact: first 4 tasks on socket 0.
	for i := 0; i < 4; i++ {
		if got := mach.NodeOfPU(ca.TaskPU[i]); got != 0 {
			t.Errorf("compact task %d on node %d, want 0", i, got)
		}
	}
	sa, err := Scatter{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	// Scatter: consecutive tasks on different sockets.
	for i := 0; i < 4; i++ {
		if got := mach.NodeOfPU(sa.TaskPU[i]); got != i {
			t.Errorf("scatter task %d on node %d, want %d", i, got, i)
		}
	}
	ra1, err := Random{Seed: 1}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := Random{Seed: 1}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ra1.TaskPU {
		if ra1.TaskPU[i] != ra2.TaskPU[i] {
			t.Fatalf("random not deterministic per seed")
		}
		if ra1.TaskPU[i] < 0 || ra1.TaskPU[i] >= topo.NumPUs() {
			t.Fatalf("random PU out of range")
		}
	}
	na, err := NoBind{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range na.TaskPU {
		if na.TaskPU[i] != -1 || na.ControlPU[i] != -1 {
			t.Errorf("nobind bound something: %d/%d", na.TaskPU[i], na.ControlPU[i])
		}
	}
}

func TestOversubscriptionVirtualArity(t *testing.T) {
	mach := machine(t, "pack:2 core:2 pu:1") // 4 cores
	m := comm.Ring(9, 1)
	a, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.VirtualArity != 3 {
		t.Errorf("treematch VirtualArity = %d, want 3", a.VirtualArity)
	}
	ca, _ := Compact{}.Assign(mach, m)
	if ca.VirtualArity != 3 {
		t.Errorf("compact VirtualArity = %d, want 3", ca.VirtualArity)
	}
}

// TestPlaceDeclaresContention pins that Place leaves the machine's
// contention state exactly as the explicit sequence Assign → Apply →
// SetContention → SetFabricContention does, on a cluster and on an SMP,
// bound and unbound.
func TestPlaceDeclaresContention(t *testing.T) {
	setup := func(spec string) (*numasim.Machine, *orwl.Runtime, []bool) {
		mach := machine(t, spec)
		rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 1})
		prog, err := kernels.Build(rt, 8, 8, kernels.BuildOptions{BX: 2, BY: 2, Iters: 1, Costs: kernels.LK23Costs})
		if err != nil {
			t.Fatal(err)
		}
		return mach, rt, prog.Heavy()
	}
	for _, spec := range []string{"cluster:2 pack:1 core:2 pu:1", "pack:2 core:2 pu:1"} {
		for _, pol := range []Policy{TreeMatch{}, NoBind{}} {
			got, rt, heavy := setup(spec)
			if _, err := Place(rt, pol, heavy); err != nil {
				t.Fatal(err)
			}
			want, rt, heavy := setup(spec)
			a, err := pol.Assign(want, rt.CommMatrix())
			if err != nil {
				t.Fatal(err)
			}
			if err := Apply(rt, a); err != nil {
				t.Fatal(err)
			}
			SetContention(want, a, heavy)
			SetFabricContention(want, a, rt.CommMatrix())

			name := spec + "/" + pol.Name()
			gc, wc := got.Contention(), want.Contention()
			for n, w := range wc.Accessors {
				if g := gc.Accessors[n]; g != w {
					t.Errorf("%s: node %d accessors %d, want %d", name, n, g, w)
				}
			}
			if g, w := gc.Remote, wc.Remote; g != w {
				t.Errorf("%s: remote streams %d, want %d", name, g, w)
			}
			if want.FabricGraph() == nil {
				continue
			}
			if len(gc.Edges) != len(wc.Edges) {
				t.Fatalf("%s: %d edge counts declared, want %d", name, len(gc.Edges), len(wc.Edges))
			}
			streams := 0
			for e, w := range wc.Edges {
				streams += w
				if g := gc.Edges[e]; g != w {
					t.Errorf("%s: edge %d streams %d, want %d", name, e, g, w)
				}
			}
			if streams == 0 {
				t.Errorf("%s: no fabric edge carries a stream; the comparison is vacuous", name)
			}
		}
	}
}

func TestApplyAndPlace(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:4 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 1})
	g := kernels.NewGrid(8, 8, 3)
	prog, err := kernels.Build(rt, 8, 8, kernels.BuildOptions{
		BX: 2, BY: 2, Iters: 2, Costs: kernels.LK23Costs, Grid: g, Cell: g.Cell,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Place(rt, TreeMatch{}, nil)
	if err != nil {
		t.Fatalf("Place: %v", err)
	}
	if len(a.TaskPU) != len(prog.Tasks) {
		t.Fatalf("assignment order %d, tasks %d", len(a.TaskPU), len(prog.Tasks))
	}
	// 36 tasks on 8 cores: oversubscribed.
	if a.VirtualArity < 2 {
		t.Errorf("VirtualArity = %d, want oversubscription", a.VirtualArity)
	}
	// TreeMatch optimizes the hop-weighted communication volume, so the
	// structural property to check is the inter-socket cut: it must not
	// exceed the compact baseline's and must clearly beat scatter's.
	cm := rt.CommMatrix()
	cut := func(asg *Assignment) float64 {
		var s float64
		for i := 0; i < cm.Order(); i++ {
			for j := 0; j < cm.Order(); j++ {
				if i == j || cm.At(i, j) == 0 {
					continue
				}
				if mach.NodeOfPU(asg.TaskPU[i]) != mach.NodeOfPU(asg.TaskPU[j]) {
					s += cm.At(i, j)
				}
			}
		}
		return s
	}
	compact, err := Compact{}.Assign(mach, cm)
	if err != nil {
		t.Fatal(err)
	}
	scatter, err := Scatter{}.Assign(mach, cm)
	if err != nil {
		t.Fatal(err)
	}
	tmCut, coCut, scCut := cut(a), cut(compact), cut(scatter)
	if tmCut > coCut {
		t.Errorf("treematch cut %v above compact %v", tmCut, coCut)
	}
	if tmCut > scCut/2 {
		t.Errorf("treematch cut %v not well below scatter %v", tmCut, scCut)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := prog.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.RunJacobiLK23(g, 2); !res.Equal(want, 0) {
		t.Errorf("placed run changed the numerics")
	}
}

func TestApplyOrderMismatch(t *testing.T) {
	rt := orwl.NewRuntime(orwl.Options{})
	rt.AddTask("a", nil)
	a := unboundControls(make([]int, 3), "x")
	if err := Apply(rt, a); err == nil {
		t.Errorf("order mismatch accepted")
	}
}

func TestSetContention(t *testing.T) {
	mach := machine(t, "pack:4 core:4 pu:1")
	// 8 heavy bound tasks: uniform average pressure of 2 per node, no
	// fabric crossings.
	a := unboundControls(make([]int, 8), "x")
	for i := 0; i < 8; i++ {
		a.TaskPU[i] = i
	}
	SetContention(mach, a, nil)
	for n, got := range mach.Contention().Accessors {
		if got != 2 {
			t.Errorf("node %d accessors = %d, want 2", n, got)
		}
	}
	if got := mach.Contention().Remote; got != 0 {
		t.Errorf("bound layout has remote streams: %d", got)
	}

	// All unbound: same average pressure plus remote streams.
	nb := unboundControls(make([]int, 8), "x")
	for i := range nb.TaskPU {
		nb.TaskPU[i] = -1
	}
	SetContention(mach, nb, nil)
	if got := mach.Contention().Accessors[0]; got != 2 {
		t.Errorf("unbound accessors = %d, want 2 (8 tasks / 4 nodes)", got)
	}
	if got := mach.Contention().Remote; got != 6 {
		t.Errorf("remote streams = %d, want 6 (8 * 3/4)", got)
	}

	// heavy mask: only even tasks count -> 4 streams over 4 nodes.
	heavy := make([]bool, 8)
	for i := 0; i < 8; i += 2 {
		heavy[i] = true
	}
	SetContention(mach, a, heavy)
	if got := mach.Contention().Accessors[0]; got != 1 {
		t.Errorf("masked accessors = %d, want 1", got)
	}
}
