package main

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/experiment"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// fabric-stencil: the three fabric experiments.

type fabricStencil struct {
	torus  experiment.TorusConfig
	rack   experiment.RackConfig
	hetero experiment.HeteroConfig
}

func (w *fabricStencil) setup(seed int64, _ *tracer) error {
	w.torus = experiment.TorusConfig{Dims: []int{8, 8}, CoresPerNode: 4, CoresPerSocket: 4, Iters: 100, Scramble: seed, Seed: seed}
	w.rack = experiment.RackConfig{Racks: 4, NodesPerRack: 8, CoresPerNode: 8, CoresPerSocket: 4, Iters: 100, Seed: seed}
	w.hetero = experiment.HeteroConfig{Pods: 2, RacksPerPod: 4, Iters: 100, Seed: seed}
	return nil
}

func (w *fabricStencil) op(tr *tracer) (outcome, error) {
	end := tr.span("experiment.run_torus_ms")
	torus, err := experiment.RunTorus("sfc", w.torus)
	end()
	if err != nil {
		return outcome{}, err
	}
	end = tr.span("experiment.run_rack_ms")
	rack, err := experiment.RunRack("rack-aware", w.rack)
	end()
	if err != nil {
		return outcome{}, err
	}
	end = tr.span("experiment.run_hetero_ms")
	hetero, err := experiment.RunHetero("aware", w.hetero)
	end()
	if err != nil {
		return outcome{}, err
	}
	var sim float64
	d := newDigester()
	for _, s := range []float64{torus.Seconds, rack.Seconds, hetero.Seconds} {
		if math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
			return outcome{}, fmt.Errorf("simulated seconds %v", s)
		}
		sim += experiment.SimCycles(s)
		d.floats(s)
	}
	return outcome{
		simCycles: sim,
		digest:    d.sum(),
		counts:    map[string]float64{"experiment.torus_place_ms": torus.WallSeconds * 1e3},
	}, nil
}

// classes numbers the distinct capacities, the class ids the hetero matcher
// constrains by.
func classes(caps []int) []int {
	ids := map[int]int{}
	out := make([]int, len(caps))
	for i, c := range caps {
		if _, ok := ids[c]; !ok {
			ids[c] = len(ids)
		}
		out[i] = ids[c]
	}
	return out
}

func (w *fabricStencil) replay(tr *tracer) error {
	if err := handoffReplay(tr); err != nil {
		return err
	}
	var torus, rack, hetero *numasim.Platform
	err := tr.replay("platform", func() (err error) {
		defer tr.span("experiment.platform_ms")()
		if torus, err = experiment.TorusCluster(w.torus); err != nil {
			return err
		}
		if rack, err = experiment.RackCluster(w.rack); err != nil {
			return err
		}
		hetero, err = experiment.HeteroPlatform(w.hetero)
		return err
	})
	if err != nil {
		return err
	}
	if err := machineReplay(tr, "torus:8x8 pack:1 l3:1 core:4 pu:1", true); err != nil {
		return err
	}

	// The group→node matcher of each fabric, as placement.Hierarchical picks
	// it: routed distances with a space-filling-curve seed on the torus, the
	// balanced fabric tree on the racks, the capacity-classed matching on the
	// heterogeneous pods. Each runs on the node-level partition of a stencil
	// sized to its platform's core count.
	fabrics := []struct {
		plat  *numasim.Platform
		match func(topo *topology.Topology, gm *comm.Matrix, caps []int) error
	}{
		{torus, func(topo *topology.Topology, gm *comm.Matrix, _ []int) error {
			seed, err := treematch.SFCSeed(topo.FabricShape().Dims, gm)
			if err != nil {
				return err
			}
			_, err = treematch.AssignByDistance(topo.FabricGraph().LatencyMatrix(), gm, nil, nil, seed)
			return err
		}},
		{rack, func(topo *topology.Topology, gm *comm.Matrix, _ []int) error {
			tree, err := treematch.FabricTree(topo)
			if err != nil {
				return err
			}
			_, err = treematch.MapMatrix(tree, gm, treematch.Options{})
			return err
		}},
		{hetero, func(topo *topology.Topology, gm *comm.Matrix, caps []int) error {
			tree, err := treematch.FabricTree(topo)
			if err != nil {
				return err
			}
			cl := classes(caps)
			_, err = treematch.AssignClassed(tree, gm, cl, cl)
			return err
		}},
	}
	matrices := make([]*comm.Matrix, len(fabrics))
	nnz := 0
	_ = tr.replay("comm", func() error {
		defer tr.span("comm.gen_ms")()
		for i, f := range fabrics {
			bx, by := experiment.BlockGrid(f.plat.Machine().Topology().NumCores())
			matrices[i] = comm.Stencil2DSparse(bx, by, 64, 8)
			nnz += matrices[i].NNZ()
		}
		return nil
	})
	tr.count("comm.nnz", float64(nnz))

	groupMatrices := make([]*comm.Matrix, len(fabrics))
	nodeCaps := make([][]int, len(fabrics))
	for i, f := range fabrics {
		nodeCaps[i] = make([]int, f.plat.Nodes())
		for n := range nodeCaps[i] {
			nodeCaps[i][n] = f.plat.NodeCores(n)
		}
		if _, groupMatrices[i], err = treematch.PartitionAcrossWeightedMatrix(matrices[i], nodeCaps[i], treematch.Options{}); err != nil {
			return err
		}
	}
	err = tr.replay("fabric_match", func() error {
		defer tr.span("treematch.fabric_match_ms")()
		for i, f := range fabrics {
			if err := f.match(f.plat.Machine().Topology(), groupMatrices[i], nodeCaps[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Contention derivation and pricing of a placed stencil on each fabric.
	assignments := make([]*placement.Assignment, len(fabrics))
	for i, f := range fabrics {
		if assignments[i], err = (placement.Hierarchical{}).Assign(f.plat.Machine(), matrices[i]); err != nil {
			return err
		}
	}
	_ = tr.replay("placement", func() error {
		end := tr.span("placement.fabric_contention_ms")
		for i, f := range fabrics {
			placement.SetFabricContention(f.plat.Machine(), assignments[i], matrices[i])
		}
		end()
		defer tr.span("placement.mapping_cost_ms")()
		for i, f := range fabrics {
			transferCycles(f.plat.Machine(), matrices[i], assignments[i].TaskPU)
		}
		return nil
	})
	return freeSlotsReplay(tr, rack.Machine())
}
