// Heat diffusion on the ORWL model: the same block decomposition as the
// Livermore kernel drives an explicit 5-point heat stencil — showing that
// the decomposition, the runtime and the placement module are generic over
// the cell update. A hot square in the centre of the plate diffuses
// outwards; the example prints a coarse thermal rendering before and after.
//
//	go run ./examples/heat
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/kernels"
)

const (
	n     = 96
	iters = 150
	alpha = 0.2
)

func main() {
	sys, err := repro.NewSystem(repro.SystemOptions{
		TopologySpec: "pack:2 l3:1 core:4 pu:2", Seed: 4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// A cold plate with a hot square in the middle.
	g := kernels.NewGrid(n, n, 1)
	for i := range g.ZA {
		g.ZA[i] = 0
	}
	for k := n / 3; k < 2*n/3; k++ {
		for j := n / 3; j < 2*n/3; j++ {
			g.ZA[g.Idx(k, j)] = 1
		}
	}
	fmt.Println("before:")
	render(g)

	cell := kernels.HeatCell(alpha)
	prog, err := kernels.Build(sys.Runtime(), n, n, kernels.BuildOptions{
		BX: 2, BY: 4, Iters: iters,
		Costs: kernels.HeatCosts, Grid: g, Cell: cell,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(prog.Heavy()); err != nil {
		log.Fatal(err)
	}
	got, err := prog.Result()
	if err != nil {
		log.Fatal(err)
	}
	if want := kernels.RunJacobi(g, cell, iters); !got.Equal(want, 0) {
		log.Fatalf("parallel heat differs from the reference (max %g)", got.MaxAbsDiff(want))
	}

	fmt.Println("after", iters, "iterations (validated against the sequential reference):")
	render(got)
	fmt.Print(sys.Report())
}

// render prints the grid as a coarse ASCII heatmap.
func render(g *kernels.Grid) {
	const cells = 24
	shades := []byte(" .:-=+*#%@")
	step := g.Rows / cells
	for k := 0; k < cells; k++ {
		for j := 0; j < cells; j++ {
			// Average the patch.
			var s float64
			for a := 0; a < step; a++ {
				for b := 0; b < step; b++ {
					s += g.At(k*step+a, j*step+b)
				}
			}
			s /= float64(step * step)
			idx := int(s * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			fmt.Printf("%c", shades[idx])
		}
		fmt.Println()
	}
}
