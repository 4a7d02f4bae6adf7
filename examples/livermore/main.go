// Livermore Kernel 23 end to end, at a laptop-friendly scale, with real
// arithmetic: the paper's §III decomposition (one main + eight frontier
// operations per block) runs under the topology-aware placement module, and
// the result is checked element-for-element against the sequential Jacobi
// reference. The same program also reports its simulated execution time
// under TreeMatch binding versus the unbound baseline.
//
//	go run ./examples/livermore
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/kernels"
	"repro/internal/placement"
)

const (
	rows, cols = 256, 256
	bx, by     = 4, 4
	iters      = 20
	spec       = "pack:4 l3:1 core:4 pu:1" // 16-core, 4-socket mini machine
)

func main() {
	bindSec := run(placement.TreeMatch{}, true)
	nobindSec := run(placement.NoBind{}, false)
	fmt.Printf("\nsimulated time: bind %.4fs, nobind %.4fs (x%.2f)\n",
		bindSec, nobindSec, nobindSec/bindSec)
}

// run executes the LK23 program under one policy and returns the simulated
// time; when validate is set it also checks the numerics.
func run(pol placement.Policy, validate bool) float64 {
	sys, err := repro.NewSystem(repro.SystemOptions{
		TopologySpec: spec, Policy: pol, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}
	g := kernels.NewGrid(rows, cols, 2016)
	prog, err := kernels.Build(sys.Runtime(), rows, cols, kernels.BuildOptions{
		BX: bx, BY: by, Iters: iters,
		Costs: kernels.LK23Costs, Grid: g, Cell: g.Cell,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Main operations carry the heavy per-iteration working sets.
	if err := sys.Run(prog.Heavy()); err != nil {
		log.Fatal(err)
	}
	fmt.Print(sys.Report())

	if validate {
		got, err := prog.Result()
		if err != nil {
			log.Fatal(err)
		}
		want := kernels.RunJacobiLK23(g, iters)
		if !got.Equal(want, 0) {
			log.Fatalf("ORWL result differs from the sequential reference (max %g)",
				got.MaxAbsDiff(want))
		}
		fmt.Printf("validated: %d cells equal the sequential Jacobi reference bit for bit\n",
			rows*cols)
	}
	return sys.Seconds()
}
