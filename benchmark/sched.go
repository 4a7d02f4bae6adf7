package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/numasim"
	"repro/internal/sched"
)

// sched-fifo / sched-phase2: the online scheduler.

// streamSeed fixes the load profile of the scheduler workloads — arrivals,
// sizes, work, constraints, priorities. The streams sit near saturation, so
// a different arrival draw moves the queueing, and with it the number of
// placement calls per op, by tens of percent: run time would measure the
// draw, not the code.
const streamSeed = 1

type schedLoop struct {
	phase2 bool
	seed   int64
	spec   string
	opts   sched.Options
	plat   *numasim.Platform
	jobs   []sched.JobSpec
}

func (w *schedLoop) setup(seed int64, tr *tracer) error {
	w.seed = seed
	var stream sched.StreamConfig
	if w.phase2 {
		w.spec = "pod:2 rack:2 node:2 pack:2 core:4 pu:1"
		stream = sched.StreamConfig{
			Jobs: 80, Seed: streamSeed, Sizes: []int{2, 3, 4, 6, 8, 12, 16}, Churn: 12,
			ConstraintFraction: 0.35, LongFraction: 0.2, LongFactor: 8, VolumeBytes: 4096,
			PriorityClasses: 3, PreferredTier: "node", RequiredTier: "rack",
		}
		w.opts = sched.Options{Policy: sched.TopoAware, Backfill: true, Preempt: true, Defrag: true}
	} else {
		w.spec = "rack:2 node:4 pack:2 core:4 pu:1"
		stream = sched.StreamConfig{
			Jobs: 800, Seed: streamSeed, Churn: 4, ConstraintFraction: 0.3,
			PreferredTier: "node", RequiredTier: "rack",
		}
		w.opts = sched.Options{Policy: sched.TopoAware, Fit: sched.BestFit, Queue: sched.QueueWait}
	}
	plat, err := numasim.NewPlatform(w.spec, numasim.Config{})
	if err != nil {
		return err
	}
	w.plat = plat
	end := tr.span("sched.gen_stream_ms")
	w.jobs, err = sched.GenerateStream(stream)
	end()
	if err != nil {
		return err
	}
	if !w.phase2 {
		return nil
	}
	// On the phase-2 stream the seed renumbers the tasks of every job's
	// stencil (the scramble after "@"), so each seed hands the placement
	// engine different matrices; at streamSeed the stream is the
	// generator's own. The FIFO stream takes no seed at all: there, any
	// renumbering moves the op time by ±15 % (the swap refinement of
	// treematch.AssignByDistance, two thirds of the op, iterates more or
	// less depending on the numbering, and the saturated queue carries every
	// changed placement into all later ones).
	for i := range w.jobs {
		shape, scramble, ok := strings.Cut(w.jobs[i].Pattern, "@")
		n, err := strconv.ParseInt(scramble, 10, 64)
		if !ok || err != nil {
			return fmt.Errorf("job %s: pattern %q has no scramble seed", w.jobs[i].Name, w.jobs[i].Pattern)
		}
		w.jobs[i].Pattern = fmt.Sprintf("%s@%d", shape, n+seed-streamSeed)
	}
	return nil
}

// run is sched.New + Run under the given options, with the output checks.
func (w *schedLoop) run(tr *tracer, opts sched.Options, name string) (*sched.Report, error) {
	end := tr.span("sched.new_us")
	s, err := sched.New(w.plat.Machine(), opts)
	end()
	if err != nil {
		return nil, err
	}
	freeBefore := s.Capacity().FreeTotal()
	end = tr.span(name)
	rep, err := s.Run(w.jobs)
	end()
	if err != nil {
		return nil, err
	}
	if err := checkReport(rep, len(w.jobs)); err != nil {
		return nil, err
	}
	if err := s.Capacity().Validate(); err != nil {
		return nil, fmt.Errorf("capacity after run: %w", err)
	}
	if got := s.Capacity().FreeTotal(); got != freeBefore {
		return nil, fmt.Errorf("free slots after run: %d, before: %d", got, freeBefore)
	}
	return rep, nil
}

// checkReport verifies the stream partition, every job's time identity and
// core exclusivity over the residency segments.
func checkReport(rep *sched.Report, jobs int) error {
	if rep.Admitted+rep.Rejected != jobs {
		return fmt.Errorf("admitted %d + rejected %d != %d jobs", rep.Admitted, rep.Rejected, jobs)
	}
	type residency struct {
		start, finish float64
		job           int
	}
	perCore := map[int][]residency{}
	for i, j := range rep.Jobs {
		if j.Rejected {
			continue
		}
		sum := j.ArriveCycles + j.WaitCycles + j.ServiceCycles
		if diff := math.Abs(sum - j.FinishCycles); diff > 1e-6*math.Max(1, math.Abs(j.FinishCycles)) {
			return fmt.Errorf("job %s: arrive+wait+service = %v, finish = %v", j.Name, sum, j.FinishCycles)
		}
		for _, seg := range j.Segments {
			for _, c := range seg.Cores {
				perCore[c] = append(perCore[c], residency{seg.StartCycles, seg.FinishCycles, i})
			}
		}
	}
	for c, rs := range perCore {
		sort.Slice(rs, func(a, b int) bool { return rs[a].start < rs[b].start })
		for k := 1; k < len(rs); k++ {
			if rs[k].start < rs[k-1].finish && rs[k].job != rs[k-1].job {
				return fmt.Errorf("core %d shared by jobs %s and %s", c, rep.Jobs[rs[k-1].job].Name, rep.Jobs[rs[k].job].Name)
			}
		}
	}
	return nil
}

func (w *schedLoop) op(tr *tracer) (outcome, error) {
	rep, err := w.run(tr, w.opts, "sched.run_ms")
	if err != nil {
		return outcome{}, err
	}
	if w.phase2 && w.seed == 1 && (rep.Backfills == 0 || rep.Preemptions == 0 || rep.DefragMigrations == 0) {
		return outcome{}, fmt.Errorf("phase-2 policies idle at seed 1: %d backfills, %d preemptions, %d defrag moves",
			rep.Backfills, rep.Preemptions, rep.DefragMigrations)
	}
	d := newDigester()
	d.floats(rep.AggregateCycles, rep.MakespanCycles, rep.WaitCycles, rep.RespawnCycles, rep.DefragCostCycles)
	for _, j := range rep.Jobs {
		d.floats(j.StartCycles, j.FinishCycles, j.ServiceCycles)
		d.ints(j.Cores)
	}
	return outcome{
		simCycles: rep.AggregateCycles,
		digest:    d.sum(),
		counts: map[string]float64{
			"sched.backfills":     float64(rep.Backfills),
			"sched.preemptions":   float64(rep.Preemptions),
			"sched.defrag_moves":  float64(rep.DefragMigrations),
			"sched.rejected":      float64(rep.Rejected),
			"sched.wait_cycles":   rep.WaitCycles,
			"sched.utilization":   rep.BusyUtilization,
			"sched.fragmentation": rep.FragmentationAvg,
			"sched.avg_spread":    rep.AvgSpread,
		},
	}, nil
}

func (w *schedLoop) replay(tr *tracer) error {
	if err := machineReplay(tr, w.spec, true); err != nil {
		return err
	}
	// Every job's matrix, which tryPlace rebuilds on each attempt.
	nnz := 0
	err := tr.replay("comm", func() error {
		defer tr.span("comm.gen_ms")()
		for _, j := range w.jobs {
			m, err := j.Matrix()
			if err != nil {
				return err
			}
			nnz += m.NNZ()
		}
		return nil
	})
	if err != nil {
		return err
	}
	tr.count("comm.nnz", float64(nnz))

	// The same stream without the placement engine, and (phase 2) without
	// the three probe-driven policies.
	err = tr.replay("sched", func() error {
		blind := w.opts
		blind.Policy = sched.TopoBlind
		if _, err := w.run(tr, blind, "sched.run_blind_ms"); err != nil {
			return err
		}
		if !w.phase2 {
			return nil
		}
		_, err := w.run(tr, sched.Options{Policy: sched.TopoAware}, "sched.run_fifo_ms")
		return err
	})
	if err != nil {
		return err
	}

	// Capacity index primitives on an empty platform: bind and release one
	// 16-core job, and snapshot the free view of every node.
	capIdx, err := sched.NewCapacity(w.plat.Machine().Topology())
	if err != nil {
		return err
	}
	cores := make([]int, 16)
	for i := range cores {
		cores[i] = i
	}
	nodes := make([]int, w.plat.Nodes())
	for i := range nodes {
		nodes[i] = i
	}
	const calls = 20000
	err = tr.replay("capacity", func() error {
		end := tr.sweep("sched.capacity_bind_release_ns", calls)
		for i := 0; i < calls; i++ {
			if err := capIdx.Bind(cores); err != nil {
				return err
			}
			if err := capIdx.Release(cores); err != nil {
				return err
			}
		}
		end()
		defer tr.sweep("sched.capacity_free_slots_ns", calls)()
		for i := 0; i < calls; i++ {
			capIdx.FreeSlots(nodes)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return freeSlotsReplay(tr, w.plat.Machine())
}
