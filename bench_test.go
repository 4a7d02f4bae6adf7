// Benchmarks regenerating the paper's evaluation (Figure 1 is its only
// figure; it has no tables) plus the ablation studies of DESIGN.md §4 and
// micro-benchmarks of the core components.
//
// The benchmark wall-clock time measures the reproduction machinery; the
// scientific output is the simulated processing time, reported as the
// custom metric "sim-sec" (simulated seconds of the 16384×16384, 100-
// iteration Livermore Kernel 23 run on the 2016-era 24×8 SMP model).
//
//	go test -bench BenchmarkFigure1 -benchmem
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/experiment"
	"repro/internal/kernels"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// benchCfg is the paper's full-scale configuration.
func benchCfg() experiment.Config {
	return experiment.Config{Seed: 42} // defaults: 16384², 100 iters, 24×8
}

// BenchmarkFigure1 regenerates Figure 1: every implementation at every core
// count of the sweep. The sim-sec metric is the value the paper plots.
func BenchmarkFigure1(b *testing.B) {
	for _, cores := range experiment.DefaultFigure1Points() {
		for _, impl := range []experiment.Impl{
			experiment.ORWLBind, experiment.ORWLNoBind, experiment.OpenMP,
		} {
			b.Run(fmt.Sprintf("%s/cores=%d", impl, cores), func(b *testing.B) {
				cfg := benchCfg()
				cfg.Cores = cores
				var sim float64
				for i := 0; i < b.N; i++ {
					res, err := experiment.Run(impl, cfg)
					if err != nil {
						b.Fatal(err)
					}
					sim = res.Seconds
				}
				b.ReportMetric(sim, "sim-sec")
			})
		}
	}
}

// BenchmarkAblation runs every study of the registry on each of its default
// cells (experiment.Studies — an ordered table, so the sub-benchmark order is
// the same on every run): one sub-benchmark per study × cell, every row's
// simulated seconds reported as a custom metric, and the study's asserted
// orderings enforced at bench time too — the exact relations the test suite
// and cmd/ablate -json check.
//
//	go test -bench 'BenchmarkAblation/shift' -benchtime 1x
func BenchmarkAblation(b *testing.B) {
	for _, s := range experiment.Studies() {
		for _, cell := range s.Cells {
			b.Run(s.Name+"/"+cell.Name, func(b *testing.B) {
				var rows []experiment.AblationRow
				var err error
				for i := 0; i < b.N; i++ {
					rows, err = s.Run(cell.Config, experiment.Overrides{})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, r := range rows {
					b.ReportMetric(r.Seconds, metricUnit(r.Name))
				}
				if err := experiment.CheckOrderings(rows, s.Orderings); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkTreeMatchFullScale measures the mapping algorithm itself on the
// paper's full problem: the 1728-operation LK23 affinity matrix onto the
// 24×8 machine (runs at program launch in the real system, so its cost
// matters).
func BenchmarkTreeMatchFullScale(b *testing.B) {
	topo := topology.PaperMachine()
	tree, err := treematch.FromTopology(topo, topology.Core)
	if err != nil {
		b.Fatal(err)
	}
	m := comm.LK23OpLevel(16, 12, 1024, 1366, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := treematch.Map(treematch.Target{Tree: tree, SMTWays: 1}, m, treematch.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLockHandoff measures one ORWL acquire/release round trip between
// two tasks (real concurrency, no simulation).
func BenchmarkLockHandoff(b *testing.B) {
	rt := orwl.NewRuntime(orwl.Options{})
	loc := rt.NewLocation("x", 8)
	iters := b.N
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
	b.ResetTimer()
	if err := rt.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimMemAccess measures one priced memory access of the machine
// simulator.
func BenchmarkSimMemAccess(b *testing.B) {
	mach, err := numasim.New(topology.PaperMachine(), numasim.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p, err := mach.NewProc("bench", 0)
	if err != nil {
		b.Fatal(err)
	}
	r, err := mach.AllocOn("data", 1<<30, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.MemRead(r, 4096)
	}
}

// BenchmarkLK23SequentialSweep measures the real arithmetic of one Jacobi
// sweep over a 512×512 grid (the validation path).
func BenchmarkLK23SequentialSweep(b *testing.B) {
	g := kernels.NewGrid(512, 512, 1)
	dst := g.Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernels.StepJacobi(dst, g, g.Cell)
	}
	b.SetBytes(int64(512 * 512 * kernels.Streams * 8))
}

// BenchmarkORWLRealLK23 measures the full runtime overhead of a real-
// arithmetic ORWL LK23 run (128×128, 2×2 blocks, 10 iterations) including
// canonical init, lock traffic and halo copies.
func BenchmarkORWLRealLK23(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rt := orwl.NewRuntime(orwl.Options{})
		g := kernels.NewGrid(128, 128, 7)
		_, err := kernels.Build(rt, 128, 128, kernels.BuildOptions{
			BX: 2, BY: 2, Iters: 10, Costs: kernels.LK23Costs, Grid: g, Cell: g.Cell,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := rt.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// metricUnit builds a whitespace-free custom-metric unit from an ablation
// row name (testing.B.ReportMetric rejects units containing spaces).
func metricUnit(name string) string {
	return "sim-sec-" + strings.ReplaceAll(name, " ", "_")
}
