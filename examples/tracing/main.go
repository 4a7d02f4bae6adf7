// Tracing: record every lock transition of a small LK23 run and export a
// Chrome trace (load trace.json at chrome://tracing or ui.perfetto.dev) —
// each task is a row, each critical section a slice, timestamps from the
// simulated clock. Also prints the per-task acquire/release summary.
//
//	go run ./examples/tracing
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/kernels"
	"repro/internal/trace"
)

func main() {
	rec := trace.NewRecorder()
	sys, err := repro.NewSystem(repro.SystemOptions{
		TopologySpec: "pack:2 l3:1 core:4 pu:1",
		Seed:         6,
		Trace:        rec.Hook(),
	})
	if err != nil {
		log.Fatal(err)
	}
	g := kernels.NewGrid(64, 64, 12)
	prog, err := kernels.Build(sys.Runtime(), 64, 64, kernels.BuildOptions{
		BX: 2, BY: 2, Iters: 5, Costs: kernels.LK23Costs, Grid: g, Cell: g.Cell,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(prog.Heavy()); err != nil {
		log.Fatal(err)
	}
	fmt.Print(sys.Report())
	fmt.Printf("recorded %d lock transitions over %d critical sections\n",
		rec.Len(), len(rec.CriticalSections()))
	fmt.Println()
	fmt.Print(trace.FormatSummaries(rec.Summaries()[:8]))
	fmt.Println("  ... (one row per task)")

	f, err := os.Create("trace.json")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := rec.WriteChromeTrace(f, sys.Machine().ClockHz()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote trace.json — open it at chrome://tracing or ui.perfetto.dev")
}
