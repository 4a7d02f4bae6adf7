package kernels

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
)

// runORWL builds and runs a real-mode LK23 program and returns the result.
func runORWL(t *testing.T, g *Grid, bx, by, iters int, rt *orwl.Runtime) *Grid {
	t.Helper()
	if rt == nil {
		rt = orwl.NewRuntime(orwl.Options{})
	}
	prog, err := Build(rt, g.Rows, g.Cols, BuildOptions{
		BX: bx, BY: by, Iters: iters, Costs: LK23Costs, Grid: g, Cell: g.Cell,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	res, err := prog.Result()
	if err != nil {
		t.Fatalf("Result: %v", err)
	}
	return res
}

// TestORWLMatchesSequential is the central validation of the paper's §III
// decomposition: the block-parallel ORWL implementation must reproduce the
// sequential Jacobi reference bit for bit, for several block grids
// including uneven splits and single-row/column blocks.
func TestORWLMatchesSequential(t *testing.T) {
	cases := []struct {
		rows, cols, bx, by, iters int
	}{
		{12, 12, 1, 1, 3},
		{12, 12, 2, 2, 5},
		{12, 12, 3, 2, 5},
		{13, 11, 3, 3, 4}, // uneven splits
		{16, 8, 4, 1, 6},  // single block row
		{8, 16, 1, 4, 6},  // single block column
		{9, 9, 3, 3, 1},   // single iteration
	}
	for _, tc := range cases {
		g := NewGrid(tc.rows, tc.cols, 11)
		want := RunJacobiLK23(g, tc.iters)
		got := runORWL(t, g, tc.bx, tc.by, tc.iters, nil)
		if !got.Equal(want, 0) {
			t.Errorf("%dx%d blocks %dx%d iters %d: ORWL differs from sequential (max diff %g)",
				tc.rows, tc.cols, tc.bx, tc.by, tc.iters, got.MaxAbsDiff(want))
		}
	}
}

func TestORWLMatchesSequentialHeat(t *testing.T) {
	g := NewGrid(14, 10, 21)
	cell := HeatCell(0.2)
	want := RunJacobi(g, cell, 7)
	rt := orwl.NewRuntime(orwl.Options{})
	prog, err := Build(rt, g.Rows, g.Cols, BuildOptions{
		BX: 2, BY: 3, Iters: 7, Costs: HeatCosts, Grid: g, Cell: cell,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := prog.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 0) {
		t.Errorf("heat ORWL differs from sequential (max diff %g)", got.MaxAbsDiff(want))
	}
}

func TestORWLMatchesSequentialOnSimMachine(t *testing.T) {
	// The virtual-time machinery must not perturb the numerics, bound or
	// unbound.
	top, err := topology.FromSpec("pack:2 l3:1 core:4 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	for _, bind := range []bool{true, false} {
		mach, err := numasim.New(top, numasim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 9})
		g := NewGrid(12, 12, 13)
		want := RunJacobiLK23(g, 4)
		prog, err := Build(rt, 12, 12, BuildOptions{
			BX: 2, BY: 2, Iters: 4, Costs: LK23Costs, Grid: g, Cell: g.Cell,
		})
		if err != nil {
			t.Fatal(err)
		}
		if bind {
			for i, task := range prog.Tasks {
				if err := rt.Bind(task, (i/9)*2); err != nil { // 9 ops per block share a core
					t.Fatal(err)
				}
			}
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		got, err := prog.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Errorf("bind=%v: simulated run changed the numerics (max diff %g)",
				bind, got.MaxAbsDiff(want))
		}
		if rt.MakespanSeconds() <= 0 {
			t.Errorf("bind=%v: no simulated time accumulated", bind)
		}
	}
}

func TestCostOnlyProgram(t *testing.T) {
	top, err := topology.FromSpec("pack:2 core:4 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	mach, err := numasim.New(top, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 1})
	prog, err := Build(rt, 1024, 1024, BuildOptions{
		BX: 4, BY: 2, Iters: 3, Costs: LK23Costs,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, task := range prog.Tasks {
		if err := rt.Bind(task, i/9); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.MakespanSeconds() <= 0 {
		t.Errorf("cost-only makespan = %v", rt.MakespanSeconds())
	}
	if _, err := prog.Result(); err == nil {
		t.Errorf("Result on cost-only program succeeded")
	}
}

func TestBuildErrors(t *testing.T) {
	rt := orwl.NewRuntime(orwl.Options{})
	g := NewGrid(8, 8, 1)
	if _, err := Build(rt, 8, 8, BuildOptions{BX: 2, BY: 2, Iters: 0}); err == nil {
		t.Errorf("zero iters accepted")
	}
	if _, err := Build(rt, 9, 9, BuildOptions{BX: 2, BY: 2, Iters: 1, Grid: g}); err == nil {
		t.Errorf("mismatched grid accepted")
	}
	if _, err := Build(rt, 8, 8, BuildOptions{BX: 2, BY: 2, Iters: 1, Grid: g}); err == nil {
		t.Errorf("real mode without Cell accepted")
	}
	if _, err := Build(rt, 8, 8, BuildOptions{BX: 99, BY: 2, Iters: 1}); err == nil {
		t.Errorf("oversized block grid accepted")
	}
}

// TestCommMatrixMatchesSynthetic cross-validates the two independent
// derivations of the affinity matrix: the one the ORWL runtime extracts
// from the real program and the synthetic generator used in unit tests.
func TestCommMatrixMatchesSynthetic(t *testing.T) {
	rt := orwl.NewRuntime(orwl.Options{})
	// 12x12 grid in 3x2 blocks: every block is 4 rows x 6... rows/by=6,
	// cols/bx=4: blocks are 6x4 (H=6, W=4), uniform, so the synthetic
	// generator's uniform volumes apply exactly.
	prog, err := Build(rt, 12, 12, BuildOptions{BX: 3, BY: 2, Iters: 1, Costs: LK23Costs})
	if err != nil {
		t.Fatal(err)
	}
	got := prog.RT.CommMatrix()
	b := prog.Part.Block(0, 0)
	want := comm.LK23OpLevel(3, 2, b.W, b.H, 8)
	if got.Order() != want.Order() {
		t.Fatalf("order %d vs %d", got.Order(), want.Order())
	}
	if !got.Equal(want, 1e-9) {
		// Locate the first mismatch for the report.
		for i := 0; i < got.Order(); i++ {
			for j := 0; j < got.Order(); j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("affinity(%s,%s) = %v, synthetic %v",
						got.Label(i), got.Label(j), got.At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestMainTaskLookup(t *testing.T) {
	rt := orwl.NewRuntime(orwl.Options{})
	prog, err := Build(rt, 8, 8, BuildOptions{BX: 2, BY: 2, Iters: 1, Costs: LK23Costs})
	if err != nil {
		t.Fatal(err)
	}
	if got := prog.Tasks[comm.LK23OpIndex(2, 1, 1, comm.OpMain)].Name(); got != "b(1,1).main" {
		t.Errorf("main task of block (1,1) = %q", got)
	}
	if len(prog.Tasks) != 2*2*comm.OpsPerBlock {
		t.Errorf("task count = %d", len(prog.Tasks))
	}
}
