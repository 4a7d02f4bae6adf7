// Benchmarks regenerating the paper's evaluation (Figure 1 is its only
// figure; it has no tables) plus the ablation studies of the registry (the
// experiment table of README.md).
//
// The scientific output is the simulated processing time, reported as the
// custom metric "sim-sec" (simulated seconds of the 16384×16384, 100-
// iteration Livermore Kernel 23 run on the 2016-era 24×8 SMP model); ns/op
// only measures the reproduction machinery on this host, which the
// benchmark/ module measures calibrated and per layer.
//
//	go test -bench BenchmarkFigure1 -benchmem
package repro

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/experiment"
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
					rows, err = s.Run(cell.Config)
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

// metricUnit builds a whitespace-free custom-metric unit from an ablation
// row name (testing.B.ReportMetric rejects units containing spaces).
func metricUnit(name string) string {
	return "sim-sec-" + strings.ReplaceAll(name, " ", "_")
}
