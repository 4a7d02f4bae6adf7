// Command treemap computes a TreeMatch mapping (the paper's Algorithm 1)
// for a communication matrix on a topology, and reports the placement and
// its hop-weighted cost against the round-robin baseline.
//
// The matrix comes from a file in the format of internal/comm (first line:
// order; then rows; '#' comments allowed; a file that is not symmetric is
// read as its symmetric form), or from a built-in generator:
//
//	treemap -topo "pack:4 core:4 pu:1" -matrix comm.txt
//	treemap -topo "pack:24 l3:1 core:8 pu:1" -stencil 16x12
//	treemap -topo "pack:2 core:4 pu:2" -ring 8 -controls
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/comm"
	"repro/internal/topology"
	"repro/internal/treematch"
)

// options collects the command's flag values, separated from flag parsing so
// tests can drive run directly.
type options struct {
	topoSpec string
	matrixF  string
	stencil  string
	ring     int
	controls bool
	dist     bool
}

func main() {
	var opts options
	flag.StringVar(&opts.topoSpec, "topo", "pack:4 core:4 pu:1", "topology spec (see internal/topology)")
	flag.StringVar(&opts.matrixF, "matrix", "", "communication matrix file")
	flag.StringVar(&opts.stencil, "stencil", "", "generate a BXxBY 8-neighbour stencil matrix, e.g. 16x12")
	flag.IntVar(&opts.ring, "ring", 0, "generate an n-task ring matrix")
	flag.BoolVar(&opts.controls, "controls", false, "run the full Algorithm 1 with ORWL control threads")
	flag.BoolVar(&opts.dist, "distribute", true, "spread tasks over NUMA nodes when resources are spare")
	flag.Parse()

	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "treemap: %v\n", err)
		os.Exit(1)
	}
}

// run computes and reports the mapping for the given options onto w.
func run(opts options, w io.Writer) error {
	topo, err := topology.FromSpec(opts.topoSpec)
	if err != nil {
		return err
	}
	m, err := loadMatrix(opts.matrixF, opts.stencil, opts.ring)
	if err != nil {
		return err
	}

	tree, err := treematch.FromTopology(topo, topology.Core)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "topology: %s -> abstract %s (%d cores)\n", topo, tree, tree.Leaves())
	fmt.Fprintf(w, "matrix: order %d, total volume %.0f\n", m.Order(), m.TotalVolume())

	opt := treematch.Options{Distribute: opts.dist}
	if opts.controls {
		res, err := treematch.Map(treematch.Target{Tree: tree, SMTWays: topo.SMTWays()}, m, opt)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "control strategy: %s, virtual arity: %d\n", res.Strategy, res.VirtualArity)
		for i, core := range res.Assignment {
			fmt.Fprintf(w, "  %-12s -> core %-3d control -> %s\n", m.Label(i), core, coreName(res.Control[i]))
		}
		reportCost(w, tree, m, res.Assignment)
		return nil
	}

	// Distribution without control threads: map onto a tree restricted to
	// the task count, as Map does, and take each leaf back to the machine.
	work := tree
	if opts.dist && 0 < m.Order() && m.Order() < tree.Leaves() {
		if work, err = tree.Restrict(m.Order()); err != nil {
			return err
		}
	}
	mp, err := treematch.MapMatrix(work, m, opt)
	if err != nil {
		return err
	}
	for i, leaf := range mp.Assignment {
		if mp.Assignment[i], err = treematch.EmbedLeaf(tree, work, leaf); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "virtual arity: %d\n", mp.VirtualArity)
	for i, core := range mp.Assignment {
		fmt.Fprintf(w, "  %-12s -> core %d (slot %d)\n", m.Label(i), core, mp.Slot[i])
	}
	reportCost(w, tree, m, mp.Assignment)
	return nil
}

func loadMatrix(file, stencil string, ring int) (*comm.Matrix, error) {
	switch {
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return comm.Read(f)
	case stencil != "":
		parts := strings.SplitN(stencil, "x", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad -stencil %q, want BXxBY", stencil)
		}
		bx, err1 := strconv.Atoi(parts[0])
		by, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil || bx < 1 || by < 1 {
			return nil, fmt.Errorf("bad -stencil %q", stencil)
		}
		return comm.Stencil2DSparse(bx, by, 1000, 10), nil
	case ring > 0:
		return comm.Ring(ring, 1000), nil
	default:
		return nil, fmt.Errorf("one of -matrix, -stencil, -ring is required")
	}
}

func reportCost(w io.Writer, tree *treematch.Tree, m *comm.Matrix, assignment []int) {
	tm := treematch.Cost(tree, m, assignment)
	rr := treematch.Cost(tree, m, treematch.RoundRobin(tree, m.Order()))
	fmt.Fprintf(w, "hop-weighted cost: treematch %.0f, round-robin %.0f", tm, rr)
	if rr != 0 { // a matrix with no off-diagonal volume has no baseline to compare against
		fmt.Fprintf(w, " (%.1f%% of baseline)", 100*tm/rr)
	}
	fmt.Fprintln(w)
}

func coreName(c int) string {
	if c < 0 {
		return "OS"
	}
	return fmt.Sprintf("core %d", c)
}
