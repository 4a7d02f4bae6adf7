package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// place-scale: Hierarchical placement at the S1 datacenter tier.

type placeHalf struct {
	spec    string
	plat    *numasim.Platform
	m       *comm.Matrix
	perNode int
	// last assignment, kept for pricing and the replays.
	assign *placement.Assignment
}

type placeScale struct {
	seed    int64
	stencil placeHalf
	random  placeHalf
}

func (w *placeScale) halves() []*placeHalf { return []*placeHalf{&w.stencil, &w.random} }

// matrices generates the two task graphs: 8100 tasks, 81 per node of the
// small platform; 10 000 tasks of degree 8, 10 per node of the large one.
func (w *placeScale) matrices() (stencil, random *comm.Matrix) {
	return comm.Stencil2DSparse(90, 90, 64, 8), comm.RandomSparse(10000, 8, 100, w.seed)
}

func (w *placeScale) setup(seed int64, _ *tracer) error {
	w.seed = seed
	w.stencil = placeHalf{spec: "cluster:100 pack:1 core:8", perNode: 81}
	w.random = placeHalf{spec: "cluster:1000 pack:1 core:8", perNode: 10}
	for _, h := range w.halves() {
		plat, err := numasim.NewPlatform(h.spec, numasim.Config{})
		if err != nil {
			return err
		}
		h.plat = plat
	}
	w.stencil.m, w.random.m = w.matrices()
	return nil
}

func (w *placeScale) op(tr *tracer) (outcome, error) {
	d := newDigester()
	for _, h := range w.halves() {
		end := tr.span("placement.assign_ms")
		a, err := placement.Hierarchical{}.Assign(h.plat.Machine(), h.m)
		end()
		if err != nil {
			return outcome{}, err
		}
		if err := checkAssignment(h.plat.Machine().Topology(), a, h.m.Order(), h.perNode); err != nil {
			return outcome{}, fmt.Errorf("%s: %w", h.spec, err)
		}
		h.assign = a
		d.ints(a.TaskPU)
		d.ints(a.ControlPU)
	}
	return outcome{digest: d.sum(), price: w.price}, nil
}

// price is the worth of the two assignments on the machine model.
func (w *placeScale) price(o *outcome) {
	var cut, total float64
	for _, h := range w.halves() {
		o.simCycles += transferCycles(h.plat.Machine(), h.m, h.assign.TaskPU)
		c, t := cutFraction(h.plat.Machine(), h.m, h.assign.TaskPU)
		cut, total = cut+c, total+t
	}
	o.counts = map[string]float64{
		"comm.nnz":               float64(w.stencil.m.NNZ() + w.random.m.NNZ()),
		"treematch.cut_fraction": cut / total,
	}
}

func (w *placeScale) replay(tr *tracer) error {
	if err := machineReplay(tr, w.random.spec, true); err != nil {
		return err
	}
	_ = tr.replay("comm", func() error {
		defer tr.span("comm.gen_ms")()
		w.matrices()
		return nil
	})

	// Three rounds, so that the two sides of the comparison below are medians
	// taken over the same stretch of time.
	halves := w.halves()
	for round := 0; round < 3; round++ {
		if err := w.replayStages(tr, halves); err != nil {
			return err
		}
		// The whole policy on one worker, which the stages must add up to;
		// what they leave is the policy's own (self) time.
		err := tr.replay("assign_seq", func() error {
			defer tr.span("placement.assign_seq_ms")()
			for _, h := range halves {
				if _, err := (placement.Hierarchical{Workers: 1}).Assign(h.plat.Machine(), h.m); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	_ = tr.replay("placement", func() error {
		defer tr.span("placement.mapping_cost_ms")()
		for _, h := range halves {
			transferCycles(h.plat.Machine(), h.m, h.assign.TaskPU)
		}
		return nil
	})
	return freeSlotsReplay(tr, w.stencil.plat.Machine())
}

// replayStages calls the stages of Hierarchical.Assign one after another
// with the inputs the policy hands them: node-level partition, the
// sub-matrix of every group, and Algorithm 1 on every node (sequential, so
// the sums are the pool's total work, not its critical path).
func (w *placeScale) replayStages(tr *tracer, halves []*placeHalf) error {
	return tr.replay("stages", func() error {
		for i, h := range halves {
			trees, err := treematch.NodeSubtrees(h.plat.Machine().Topology(), topology.Core)
			if err != nil {
				return err
			}
			caps := make([]int, len(trees))
			for n, t := range trees {
				caps[n] = t.Leaves()
			}
			end := tr.span([]string{"treematch.partition_stencil_ms", "treematch.partition_random_ms"}[i])
			groups, _, err := treematch.PartitionAcrossWeightedMatrix(h.m, caps, treematch.Options{})
			end()
			if err != nil {
				return err
			}
			// Group by group, as the policy's pool does: the sub-matrix is
			// still in cache when Algorithm 1 reads it.
			for g, group := range groups {
				end = tr.span("comm.submatrix_ms")
				sub, err := h.m.Submatrix(group)
				end()
				if err != nil {
					return err
				}
				end = tr.span("treematch.node_map_ms")
				_, err = treematch.Map(treematch.Target{Tree: trees[g], SMTWays: 1}, sub, treematch.Options{Distribute: true})
				end()
				if err != nil {
					return err
				}
			}
		}
		return nil
	})
}
