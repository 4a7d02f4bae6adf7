package main

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/experiment"
	"repro/internal/kernels"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/treematch"
)

// lk23-bind / lk23-nobind: the paper pipeline at paper scale.

const (
	lk23Spec  = "pack:24 l3:1 core:8 pu:1"
	lk23N     = 16384
	lk23BX    = 16
	lk23BY    = 12
	lk23Iters = 100
)

type lk23 struct {
	bind bool
	seed int64
	// last assignment and matrix, kept for the replays.
	matrix *comm.Matrix
	assign *placement.Assignment
}

func (w *lk23) setup(seed int64, _ *tracer) error {
	w.seed = seed
	return nil
}

func (w *lk23) policy() placement.Policy {
	if w.bind {
		return placement.TreeMatch{}
	}
	return placement.NoBind{}
}

// pipeline is the op: machine, runtime, program, matrix, placement, run.
// hook, when non-nil, is installed as the runtime's trace callback.
func (w *lk23) pipeline(tr *tracer, hook func(orwl.TraceEvent)) (*orwl.Runtime, *kernels.Program, error) {
	end := tr.span("topology.from_spec_us")
	topo, err := topology.FromSpec(lk23Spec)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.span("numasim.new_us")
	mach, err := numasim.New(topo, numasim.Config{})
	end()
	if err != nil {
		return nil, nil, err
	}
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: w.seed, Trace: hook})
	end = tr.span("kernels.build_ms")
	prog, err := kernels.Build(rt, lk23N, lk23N, kernels.BuildOptions{
		BX: lk23BX, BY: lk23BY, Iters: lk23Iters, Costs: kernels.LK23Costs,
	})
	end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.span("orwl.comm_matrix_ms")
	m := rt.CommMatrix()
	end()
	end = tr.span("placement.assign_ms")
	a, err := w.policy().Assign(mach, m)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.span("placement.apply_us")
	err = placement.Apply(rt, a)
	heavy := make([]bool, len(prog.Tasks))
	for i := range heavy {
		heavy[i] = i%9 == 0
	}
	placement.SetContention(mach, a, heavy)
	end()
	if err != nil {
		return nil, nil, err
	}
	end = tr.span("orwl.run_ms")
	err = rt.Run()
	end()
	if err != nil {
		return nil, nil, err
	}
	w.matrix, w.assign = m, a
	return rt, prog, nil
}

func (w *lk23) op(tr *tracer) (outcome, error) {
	rt, prog, err := w.pipeline(tr, nil)
	if err != nil {
		return outcome{}, err
	}
	topo := rt.Machine().Topology()
	a := w.assign
	if w.bind {
		if err := checkAssignment(topo, a, len(prog.Tasks), len(prog.Tasks)); err != nil {
			return outcome{}, err
		}
	} else {
		for t, pu := range a.TaskPU {
			if pu != -1 {
				return outcome{}, fmt.Errorf("nobind bound task %d to PU %d", t, pu)
			}
		}
	}
	var st numasim.ProcStats
	for _, t := range prog.Tasks {
		s := t.Proc().Stats()
		st.ComputeCycles += s.ComputeCycles
		st.MemoryCycles += s.MemoryCycles
		st.TransferCycles += s.TransferCycles
		st.WaitCycles += s.WaitCycles
		st.BytesMoved += s.BytesMoved
		st.Migrations += s.Migrations
	}
	makespan := rt.MakespanCycles()
	if math.IsNaN(makespan) || math.IsInf(makespan, 0) || makespan <= 0 {
		return outcome{}, fmt.Errorf("makespan %v", makespan)
	}
	d := newDigester()
	d.ints(a.TaskPU)
	d.ints(a.ControlPU)
	d.floats(makespan, st.ComputeCycles, st.MemoryCycles, st.TransferCycles, st.WaitCycles, st.BytesMoved)
	d.ints([]int{st.Migrations})
	return outcome{
		simCycles: makespan,
		digest:    d.sum(),
		counts: map[string]float64{
			"numasim.sim_compute_cycles":  st.ComputeCycles,
			"numasim.sim_memory_cycles":   st.MemoryCycles,
			"numasim.sim_transfer_cycles": st.TransferCycles,
			"numasim.sim_wait_cycles":     st.WaitCycles,
			"numasim.sim_bytes_moved":     st.BytesMoved,
			"numasim.sim_migrations":      float64(st.Migrations),
			"comm.nnz":                    float64(w.matrix.NNZ()),
		},
	}, nil
}

func (w *lk23) replay(tr *tracer) error {
	if err := machineReplay(tr, lk23Spec, false); err != nil {
		return err
	}
	if err := handoffReplay(tr); err != nil {
		return err
	}
	topo, err := topology.FromSpec(lk23Spec)
	if err != nil {
		return err
	}
	mach, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		return err
	}
	m := w.matrix

	// The analytic generator of the matrix the runtime extracts.
	_ = tr.replay("comm", func() error {
		defer tr.span("comm.gen_ms")()
		comm.LK23OpLevel(lk23BX, lk23BY, lk23N/lk23BX, lk23N/lk23BY, 8)
		return nil
	})

	if w.bind {
		// Algorithm 1 alone, on the inputs TreeMatch.Assign hands it.
		tree, err := treematch.FromTopology(topo, topology.Core)
		if err != nil {
			return err
		}
		for i := 0; i < 3; i++ {
			err := tr.replay("treematch", func() error {
				defer tr.span("treematch.map_ms")()
				_, err := treematch.Map(treematch.Target{Tree: tree, SMTWays: topo.SMTWays()}, m, treematch.Options{Distribute: true})
				return err
			})
			if err != nil {
				return err
			}
		}
		_ = tr.replay("placement", func() error {
			defer tr.span("placement.mapping_cost_ms")()
			placement.MappingCost(mach, m, w.assign.TaskPU)
			return nil
		})
		cut, total := cutFraction(mach, m, w.assign.TaskPU)
		tr.count("treematch.cut_fraction", cut/total)
	}

	// The same pipeline with the trace package's recorder installed, against
	// one without: the recorder's cost, and the exact acquire count.
	for i := 0; i < 2; i++ {
		rec := trace.NewRecorder()
		err := tr.replay("trace", func() error {
			end := tr.span("trace.recorded_run_ms")
			_, _, err := w.pipeline(nil, rec.Hook())
			end()
			if err != nil {
				return err
			}
			defer tr.span("trace.plain_run_ms")()
			_, _, err = w.pipeline(nil, nil)
			return err
		})
		if err != nil {
			return err
		}
		acquires := 0
		for _, e := range rec.Events() {
			if e.Op == "acquire" {
				acquires++
			}
		}
		tr.count("orwl.acquires", float64(acquires))
	}

	// Figure 1's third arm at full scale.
	return tr.replay("omp", func() error {
		defer tr.span("omp.lk23_ms")()
		_, err := experiment.Run(experiment.OpenMP, experiment.Config{Seed: w.seed})
		return err
	})
}
