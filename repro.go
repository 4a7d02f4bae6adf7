// Package repro is a Go reproduction of "Optimizing Locality by
// Topology-aware Placement for a Task Based Programming Model" (Gustedt,
// Jeannot, Mansouri; IEEE CLUSTER 2016): the ORWL task-based programming
// model enriched with a TreeMatch-based, topology-aware thread-placement
// module, evaluated with the Livermore Kernel 23 benchmark.
//
// This package is the public facade; the implementation lives in the
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
//	internal/core       orchestration (machine + program + placement)
//	internal/trace      lock-transition tracing
//
// The quickest entry points are below; see README.md for the architecture.
package repro

import (
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/orwl"
	"repro/internal/placement"
)

// System is an assembled simulated machine with an ORWL program under
// construction; see internal/core.
type System = core.System

// SystemOptions configures NewSystem.
type SystemOptions = core.Options

// NewSystem builds a simulated NUMA machine (default: the paper's 24×8
// SMP) with an empty ORWL runtime and the topology-aware placement policy.
func NewSystem(opts SystemOptions) (*System, error) {
	return core.NewSystem(opts)
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

// PlaceAdaptive places rt's tasks with the base policy and installs the
// epoch feedback loop; see placement.PlaceAdaptive.
func PlaceAdaptive(rt *Runtime, opts AdaptiveOptions) (*AdaptiveEngine, error) {
	return placement.PlaceAdaptive(rt, opts)
}

// Epoch is the quiesced runtime view handed to epoch hooks; see
// orwl.Runtime.ConfigureEpochs.
type Epoch = orwl.Epoch

// PhaseShiftConfig and PhaseShiftResult parameterize the phase-shifting
// evaluation scenario of the adaptive engine (experiment A8).
type (
	PhaseShiftConfig = experiment.PhaseShiftConfig
	PhaseShiftResult = experiment.PhaseShiftResult
)

// RunPhaseShift runs the phase-shifting workload under "static", "adaptive"
// or "oracle" placement; see experiment.RunPhaseShift.
func RunPhaseShift(mode string, cfg PhaseShiftConfig) (PhaseShiftResult, error) {
	return experiment.RunPhaseShift(mode, cfg)
}

// ExperimentConfig parameterizes the Livermore Kernel 23 experiment.
type ExperimentConfig = experiment.Config

// Figure1Row is one core-count point of the paper's Figure 1.
type Figure1Row = experiment.Figure1Row

// Figure1 regenerates the paper's Figure 1: LK23 processing time for
// ORWL Bind, ORWL NoBind and OpenMP at each core count.
func Figure1(points []int, cfg ExperimentConfig) ([]Figure1Row, error) {
	return experiment.Figure1(points, cfg)
}

// DefaultFigure1Points returns the swept core counts (8..192).
func DefaultFigure1Points() []int { return experiment.DefaultFigure1Points() }

// FormatFigure1 renders Figure 1 rows as a table with the paper's speedup
// columns.
func FormatFigure1(rows []Figure1Row) string { return experiment.FormatFigure1(rows) }
