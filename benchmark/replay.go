package main

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// Layer replays shared by several workloads. A replay calls a lower layer's
// exported function with the inputs the pipeline would hand it, under a root
// span of its own, and is never counted in op time.

// replay runs fn under a root span; the spans fn records form one sample of
// each metric they name.
func (t *tracer) replay(name string, fn func() error) error {
	defer t.span("replay." + name)()
	return fn()
}

// sweepPoints bounds the endpoints a pricing sweep visits, so the 8000-PU
// platform costs the same few milliseconds as the SMP.
const sweepPoints = 96

// spread returns at most sweepPoints evenly spaced indices below n.
func spread(n int) []int {
	k := min(n, sweepPoints)
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// machineReplay times the construction and pricing primitives of the
// workload's machine: spec parsing, topology and machine construction, and
// sweeps of the routed-latency, transfer, memory-read and migration pricing
// functions. construction is false where the op itself already records the
// construction spans (the machine is rebuilt per op).
func machineReplay(tr *tracer, spec string, construction bool) error {
	return tr.replay("machine", func() error {
		end := tr.span("topology.platform_parse_us")
		ps, err := topology.ParsePlatform(spec)
		end()
		if err != nil {
			return err
		}
		if construction {
			fused, err := ps.FusedSpec()
			if err != nil {
				return err
			}
			end = tr.span("topology.from_spec_us")
			_, err = topology.FromSpec(fused)
			end()
			if err != nil {
				return err
			}
			end = tr.span("numasim.new_us")
		} else {
			end = noop
		}
		plat, err := numasim.NewPlatform(spec, numasim.Config{})
		end()
		if err != nil {
			return err
		}
		mach := plat.Machine()
		topo := mach.Topology()

		var sink float64
		if g := topo.FabricGraph(); g != nil {
			nodes := spread(g.NumNodes())
			g.PathLatency(0, 0) // fill the memo outside the sweep
			end = tr.sweep("topology.route_ns", len(nodes)*len(nodes))
			for _, a := range nodes {
				for _, b := range nodes {
					sink += g.PathLatency(a, b)
				}
			}
			end()
		}
		pus := spread(topo.NumPUs())
		end = tr.sweep("numasim.transfer_cost_ns", len(pus)*len(pus))
		for _, a := range pus {
			for _, b := range pus {
				sink += mach.TransferCost(a, b, 4096)
			}
		}
		end()
		end = tr.sweep("numasim.migration_cost_ns", len(pus)*len(pus))
		for _, a := range pus {
			for _, b := range pus {
				sink += mach.MigrationCostCycles(a, b, 4096)
			}
		}
		end()

		proc, err := mach.NewProc("replay", pus[len(pus)-1])
		if err != nil {
			return err
		}
		defer proc.Release()
		region, err := mach.AllocOn("replay", 1<<30, 0)
		if err != nil {
			return err
		}
		const reads = 20000
		end = tr.sweep("numasim.mem_read_ns", reads)
		for i := 0; i < reads; i++ {
			proc.MemRead(region, 4096)
		}
		end()
		if math.IsNaN(sink) {
			return fmt.Errorf("machine replay priced a NaN")
		}
		return nil
	})
}

// handoffReplay times the ORWL lock protocol alone: two tasks alternate on
// one location, no machine attached.
func handoffReplay(tr *tracer) error {
	const iters = 20000
	rt := orwl.NewRuntime(orwl.Options{})
	loc := rt.NewLocation("x", 8)
	for i := 0; i < 2; i++ {
		task := rt.AddTask("t", func(task *orwl.Task) error {
			h := task.Handle(0)
			for it := 0; it < iters; it++ {
				if err := h.Acquire(); err != nil {
					return err
				}
				var err error
				if it == iters-1 {
					err = h.Release()
				} else {
					err = h.ReleaseAndRequest()
				}
				if err != nil {
					return err
				}
			}
			return nil
		})
		task.NewHandle(loc, orwl.Write)
	}
	return tr.replay("handoff", func() error {
		defer tr.sweep("orwl.handoff_ns", 2*iters)()
		return rt.Run()
	})
}

// freeSlotsReplay times placement.AssignFreeSlots of a 4×4 stencil job on a
// fixed checkerboard-fragmented free view of the machine: every other core
// of every cluster node is free.
func freeSlotsReplay(tr *tracer, mach *numasim.Machine) error {
	topo := mach.Topology()
	free := make([][]int, max(topo.NumClusterNodes(), 1))
	for c, core := range topo.Cores() {
		if c%2 != 0 {
			continue
		}
		n := 0
		if cn := topo.ClusterNodeOf(core); cn != nil {
			n = cn.LevelIndex
		}
		free[n] = append(free[n], c)
	}
	m := comm.Stencil2DSparse(4, 4, 4096, 0)
	const calls = 20
	return tr.replay("free_slots", func() error {
		defer tr.sweep("placement.free_slots_assign_us", calls)()
		for i := 0; i < calls; i++ {
			if _, err := placement.AssignFreeSlots(mach, m, free, treematch.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
}
