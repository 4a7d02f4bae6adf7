// Package repro is a Go reproduction of "Optimizing Locality by
// Topology-aware Placement for a Task Based Programming Model" (Gustedt,
// Jeannot, Mansouri; IEEE CLUSTER 2016): the ORWL task-based programming
// model enriched with a TreeMatch-based, topology-aware thread-placement
// module, evaluated with the Livermore Kernel 23 benchmark.
//
// This package is the library's facade: a simulated machine with an ORWL
// program on it (System), the placement policies and the adaptive
// re-placement engine. The evaluation is not part of it: cmd/lk23 runs
// Figure 1 and cmd/ablate the studies. The implementation lives in the
// internal packages:
//
//	internal/topology   hardware topology model (the HWLOC role)
//	internal/numasim    deterministic virtual-time NUMA machine simulator
//	internal/comm       communication/affinity matrices
//	internal/treematch  Algorithm 1 (TreeMatch + oversubscription +
//	                    control threads + NUMA distribution)
//	internal/orwl       the ORWL runtime (locations, handles, tasks)
//	internal/placement  the placement module and baseline policies
//	internal/kernels    Livermore Kernel 23 and the block decomposition
//	internal/omp        the OpenMP-style baseline runtime
//	internal/experiment Figure 1 and the ablation studies
//	internal/trace      lock-transition tracing
//
// See README.md for the architecture.
package repro

import (
	"fmt"
	"strings"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// System is an assembled simulated machine with an ORWL program under
// construction: the workflow a user of the paper's system follows is to
// write the program against Runtime, then Run it, which binds every thread
// with the topology-aware placement module first.
type System struct {
	mach *numasim.Machine
	rt   *orwl.Runtime

	policy     placement.Policy
	assignment *placement.Assignment
	ran        bool
}

// SystemOptions configures NewSystem.
type SystemOptions struct {
	// TopologySpec describes the machine (see internal/topology); default
	// is the paper's 24×8 SMP.
	TopologySpec string
	// Policy is the placement policy applied by Run; default TreeMatch
	// (the paper's module). Use NoBindPolicy{} to reproduce the unbound
	// configuration.
	Policy placement.Policy
	// Seed drives the simulated OS scheduler for unbound threads.
	Seed int64
	// Trace receives lock-transition events (see internal/trace).
	Trace func(orwl.TraceEvent)
}

// NewSystem builds a simulated NUMA machine (default: the paper's 24×8
// SMP) with an empty ORWL runtime and the topology-aware placement policy.
func NewSystem(opts SystemOptions) (*System, error) {
	var (
		topo *topology.Topology
		err  error
	)
	if opts.TopologySpec == "" {
		topo = topology.PaperMachine()
	} else if topo, err = topology.FromSpec(opts.TopologySpec); err != nil {
		return nil, err
	}
	mach, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		return nil, err
	}
	pol := opts.Policy
	if pol == nil {
		pol = placement.TreeMatch{}
	}
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: opts.Seed, Trace: opts.Trace})
	return &System{mach: mach, rt: rt, policy: pol}, nil
}

// Machine returns the simulated machine.
func (s *System) Machine() *numasim.Machine { return s.mach }

// Runtime returns the ORWL runtime; build the program (locations, tasks,
// handles) against it before calling Run.
func (s *System) Runtime() *orwl.Runtime { return s.rt }

// Run places the program with the system's policy (extracting the affinity
// matrix from the runtime, exactly the paper's pipeline, and declaring the
// memory and fabric contention the placement implies) and executes it.
// heavy marks the tasks with a dominant per-iteration working set (nil: all
// of them).
func (s *System) Run(heavy []bool) error {
	if s.ran {
		return fmt.Errorf("repro: Run called twice")
	}
	s.ran = true
	a, err := placement.Place(s.rt, s.policy, heavy)
	if err != nil {
		return err
	}
	s.assignment = a
	return s.rt.Run()
}

// Seconds returns the simulated execution time of the program.
func (s *System) Seconds() float64 { return s.rt.MakespanSeconds() }

// Report renders a human-readable run summary.
func (s *System) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine:  %s\n", s.mach.Topology())
	if s.assignment != nil {
		fmt.Fprintf(&b, "policy:   %s (control threads: %s", s.assignment.Policy, s.assignment.Strategy)
		if s.assignment.VirtualArity > 1 {
			fmt.Fprintf(&b, ", oversubscribed x%d", s.assignment.VirtualArity)
		}
		fmt.Fprintf(&b, ")\n")
	}
	fmt.Fprintf(&b, "tasks:    %d over %d locations\n", len(s.rt.Tasks()), len(s.rt.Locations()))
	fmt.Fprintf(&b, "simulated time: %.4fs (wall %.3fs)\n", s.Seconds(), s.rt.WallTime().Seconds())
	return b.String()
}

// Runtime, Task, Handle and Location are the ORWL programming-model types.
type (
	Runtime  = orwl.Runtime
	Task     = orwl.Task
	Handle   = orwl.Handle
	Location = orwl.Location
)

// Read and Write are the handle access modes.
const (
	Read  = orwl.Read
	Write = orwl.Write
)

// TreeMatchPolicy is the paper's placement policy; NoBindPolicy leaves all
// threads to the OS scheduler (the paper's NoBind baseline).
type (
	TreeMatchPolicy = placement.TreeMatch
	NoBindPolicy    = placement.NoBind
)

// AdaptiveOptions, AdaptiveEngine and AdaptiveStats expose the epoch-based
// adaptive re-placement engine: the one-shot pipeline of the paper turned
// into a feedback loop that re-decides the placement from the measured
// communication window at every epoch boundary.
type (
	AdaptiveOptions = placement.AdaptiveOptions
	AdaptiveEngine  = placement.AdaptiveEngine
	AdaptiveStats   = placement.AdaptiveStats
)

// PlaceAdaptive places rt's tasks with the base policy, declares the
// contention of the heavy tasks (nil: all of them) and installs the epoch
// feedback loop; see placement.PlaceAdaptive.
func PlaceAdaptive(rt *Runtime, opts AdaptiveOptions, heavy []bool) (*AdaptiveEngine, error) {
	return placement.PlaceAdaptive(rt, opts, heavy)
}

// Epoch is the quiesced runtime view handed to epoch hooks; see
// orwl.Runtime.ConfigureEpochs.
type Epoch = orwl.Epoch
