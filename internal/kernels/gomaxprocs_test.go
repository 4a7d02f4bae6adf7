package kernels

import (
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
)

// TestSimulationIndependentOfGOMAXPROCS: an ORWL stencil's simulated results
// — the makespan, the summed Proc accounting and the measured communication
// matrix — are bit-identical whether its goroutines share one thread or run
// on eight, bound or left to the simulated OS scheduler. No lock serialises
// the tasks' pricing, so the interleavings widen with GOMAXPROCS; the
// results must not.
func TestSimulationIndependentOfGOMAXPROCS(t *testing.T) {
	type outcome struct {
		makespan float64
		stats    numasim.ProcStats
		measured *comm.Matrix
	}
	run := func(bind bool) outcome {
		top, err := topology.FromSpec("pack:4 l3:1 core:8 pu:2")
		if err != nil {
			t.Fatal(err)
		}
		mach, err := numasim.New(top, numasim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 1})
		prog, err := Build(rt, 256, 256, BuildOptions{BX: 8, BY: 8, Iters: 5, Costs: LK23Costs})
		if err != nil {
			t.Fatal(err)
		}
		if bind {
			for i, task := range prog.Tasks {
				if err := rt.Bind(task, i%top.NumPUs()); err != nil {
					t.Fatal(err)
				}
			}
		}
		mach.Declare(numasim.Contention{Remote: top.NumPUs()})
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		var st numasim.ProcStats
		for _, task := range prog.Tasks {
			s := task.Proc().Stats()
			st.ComputeCycles += s.ComputeCycles
			st.MemoryCycles += s.MemoryCycles
			st.TransferCycles += s.TransferCycles
			st.WaitCycles += s.WaitCycles
			st.BytesMoved += s.BytesMoved
			st.Migrations += s.Migrations
		}
		return outcome{rt.MakespanCycles(), st, rt.MeasuredCommMatrix()}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, bind := range []bool{true, false} {
		var ref outcome
		for k, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got := run(bind)
			if k == 0 {
				ref = got
				if got.makespan <= 0 || got.stats.TransferCycles <= 0 {
					t.Fatalf("bind=%v: degenerate run %+v", bind, got.stats)
				}
				continue
			}
			if got.makespan != ref.makespan {
				t.Errorf("bind=%v GOMAXPROCS=%d: makespan %v, %v at GOMAXPROCS=1", bind, procs, got.makespan, ref.makespan)
			}
			if got.stats != ref.stats {
				t.Errorf("bind=%v GOMAXPROCS=%d: stats %+v, %+v at GOMAXPROCS=1", bind, procs, got.stats, ref.stats)
			}
			if !got.measured.Equal(ref.measured, 0) {
				t.Errorf("bind=%v GOMAXPROCS=%d: measured communication matrix differs from GOMAXPROCS=1", bind, procs)
			}
		}
	}
}
