// Package core ties the pieces of the reproduction together into the
// workflow a user of the paper's system follows: build a (simulated)
// machine, write an ORWL program against it, let the topology-aware
// placement module bind every thread, and run.
//
// It is a thin orchestration layer over internal/topology (the HWLOC role),
// internal/numasim (the machine), internal/orwl (the programming model) and
// internal/placement (the paper's contribution); the examples and the
// public facade build on it.
package core

import (
	"fmt"
	"strings"

	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/placement"
	"repro/internal/topology"
)

// System is one simulated machine with one ORWL program under construction.
type System struct {
	mach *numasim.Machine
	rt   *orwl.Runtime

	policy     placement.Policy
	assignment *placement.Assignment
	ran        bool
}

// Options configures a System.
type Options struct {
	// TopologySpec describes the machine (see internal/topology); default
	// is the paper's 24×8 SMP.
	TopologySpec string
	// Policy is the placement policy applied by Run; default TreeMatch
	// (the paper's module). Use placement.NoBind{} to reproduce the
	// unbound configuration.
	Policy placement.Policy
	// Seed drives the simulated OS scheduler for unbound threads.
	Seed int64
	// Trace receives lock-transition events (see internal/trace).
	Trace func(orwl.TraceEvent)
}

// NewSystem builds a simulated machine and an empty runtime on it.
func NewSystem(opts Options) (*System, error) {
	spec := opts.TopologySpec
	if spec == "" {
		spec = "pack:24 l3:1 core:8 pu:1"
	}
	topo, err := topology.FromSpec(spec)
	if err != nil {
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
// matrix from the runtime, exactly the paper's pipeline), derives the
// static memory and fabric contention model, and executes the program. heavy marks the tasks
// with a dominant per-iteration working set (nil: all of them).
func (s *System) Run(heavy []bool) error {
	if s.ran {
		return fmt.Errorf("core: Run called twice")
	}
	s.ran = true
	a, err := placement.Place(s.rt, s.policy)
	if err != nil {
		return err
	}
	s.assignment = a
	placement.SetContention(s.mach, a, heavy)
	placement.SetFabricContention(s.mach, a, s.rt.CommMatrix())
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
