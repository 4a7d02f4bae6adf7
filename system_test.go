package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/orwl"
	"repro/internal/placement"
)

func TestSystemEndToEnd(t *testing.T) {
	sys, err := NewSystem(SystemOptions{TopologySpec: "pack:2 l3:1 core:4 pu:1", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := kernels.NewGrid(16, 16, 5)
	prog, err := kernels.Build(sys.Runtime(), 16, 16, kernels.BuildOptions{
		BX: 2, BY: 2, Iters: 3, Costs: kernels.LK23Costs, Grid: g, Cell: g.Cell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(prog.Heavy()); err != nil {
		t.Fatal(err)
	}
	if sys.Seconds() <= 0 {
		t.Errorf("no simulated time")
	}
	if sys.assignment == nil || sys.assignment.Policy != "treematch" {
		t.Errorf("assignment = %+v", sys.assignment)
	}
	res, err := prog.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := kernels.RunJacobiLK23(g, 3); !res.Equal(want, 0) {
		t.Errorf("numerics changed by the facade pipeline")
	}
	rep := sys.Report()
	for _, want := range []string{"machine:", "treematch", "simulated time"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Report missing %q:\n%s", want, rep)
		}
	}
	if err := sys.Run(nil); err == nil {
		t.Errorf("second Run accepted")
	}
}

func TestSystemDefaults(t *testing.T) {
	sys, err := NewSystem(SystemOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.Machine().Topology().NumCores(); got != 192 {
		t.Errorf("default machine cores = %d, want 192 (the paper's SMP)", got)
	}
}

func TestSystemBadSpec(t *testing.T) {
	if _, err := NewSystem(SystemOptions{TopologySpec: "bogus:1"}); err == nil {
		t.Errorf("bad spec accepted")
	}
}

func TestSystemNoBindPolicy(t *testing.T) {
	sys, err := NewSystem(SystemOptions{TopologySpec: "pack:2 core:2 pu:1", Policy: placement.NoBind{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	loc := sys.Runtime().NewLocation("x", 8)
	task := sys.Runtime().AddTask("t", func(task *orwl.Task) error {
		h := task.Handle(0)
		if err := h.Acquire(); err != nil {
			return err
		}
		return h.Release()
	})
	task.NewHandle(loc, orwl.Write)
	if err := sys.Run(nil); err != nil {
		t.Fatal(err)
	}
	if sys.assignment.Policy != "nobind" {
		t.Errorf("policy = %s", sys.assignment.Policy)
	}
	if task.Proc().Bound() {
		t.Errorf("nobind bound the task to PU %d", task.Proc().PU())
	}
}

// TestSystemRunDeclaresFabricContention pins that Run prices a cluster's
// fabric from the placement: a 4-task ring cannot be split over two 2-core
// nodes without crossing the fabric, so some edge must carry a stream.
func TestSystemRunDeclaresFabricContention(t *testing.T) {
	sys, err := NewSystem(SystemOptions{TopologySpec: "cluster:2 pack:1 core:2 pu:1", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := sys.Runtime()
	const n, vol = 4, 1 << 10
	locs := make([]*orwl.Location, n)
	for i := range locs {
		locs[i] = rt.NewLocation(fmt.Sprintf("l%d", i), vol)
	}
	for i := range locs {
		task := rt.AddTask(fmt.Sprintf("t%d", i), func(task *orwl.Task) error {
			for _, h := range task.Handles() {
				if err := h.Acquire(); err != nil {
					return err
				}
				if err := h.Release(); err != nil {
					return err
				}
			}
			return nil
		})
		task.NewHandleVol(locs[(i+1)%n], orwl.Read, vol, 0)
		task.NewHandleVol(locs[i], orwl.Write, vol, 1)
	}
	if err := sys.Run(nil); err != nil {
		t.Fatal(err)
	}
	mach, streams := sys.Machine(), 0
	for e := 0; e < mach.FabricGraph().NumEdges(); e++ {
		streams += mach.EdgeStreams(e)
	}
	if streams == 0 {
		t.Errorf("no fabric edge carries a stream after Run on a two-node cluster")
	}
}
