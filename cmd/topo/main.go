// Command topo inspects a synthetic hardware topology: the tree, the
// NUMA distance table (SLIT style) and the PU-to-PU latency model.
//
//	topo -spec "pack:24 l3:1 core:8 pu:1"
//	topo -spec "pack:2 numa:2 core:4 pu:2" -latency
//	topo -spec "node:4 pack:2 core:8"                # a 4-machine cluster
//	topo -spec "rack:2 node:4 pack:2 core:8"         # two racks of 4 machines
//	topo -spec "pod:2 rack:2 node:2 pack:1 core:4"   # three switch tiers
//	topo -spec "rack:2 node:{pack:2 core:8 | pack:1 core:4}"  # heterogeneous
//	topo -spec "torus:4x4 pack:1 core:4"             # 16-node 2-D torus
//	topo -spec "dragonfly:2,4,2 pack:1 core:4"       # 2 groups x 4 routers x 2 nodes
//
// Shaped (torus/dragonfly) fabrics additionally print the routed fabric
// graph: edge classes and a worked example route.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/topology"
)

func main() {
	var (
		spec    = flag.String("spec", "pack:24 l3:1 core:8 pu:1", "topology spec")
		latency = flag.Bool("latency", false, "print the PU-to-PU latency matrix (small machines only)")
	)
	flag.Parse()

	if err := run(*spec, *latency, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "topo: %v\n", err)
		os.Exit(1)
	}
}

// run renders the topology report for a spec onto w; it is the whole
// command behind the flag parsing, separated so tests can drive it.
func run(spec string, latency bool, w io.Writer) error {
	topo, err := topology.FromSpec(spec)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, topo)
	fmt.Fprintf(w, "normalized spec: %s\n\n", topo.Spec())
	fmt.Fprint(w, topo.Render())
	if fabric := topo.RenderFabric(); fabric != "" {
		fmt.Fprintln(w)
		fmt.Fprint(w, fabric)
	}

	fmt.Fprintln(w, "\nNUMA distances (SLIT style, local = 10):")
	for _, row := range topo.NUMADistanceMatrix() {
		for _, d := range row {
			fmt.Fprintf(w, " %3d", d)
		}
		fmt.Fprintln(w)
	}

	if latency {
		if topo.NumPUs() > 32 {
			fmt.Fprintln(w, "\n(latency matrix suppressed: more than 32 PUs)")
			return nil
		}
		fmt.Fprintln(w, "\nPU-to-PU latency (cycles):")
		for _, row := range topo.LatencyMatrix() {
			for _, l := range row {
				fmt.Fprintf(w, " %6.0f", l)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
