package experiment

import (
	"fmt"

	"repro/internal/numasim"
	"repro/internal/sched"
	"repro/internal/topology"
)

// The scheduler ablations leave the single-program world of A1–A14: instead
// of placing one task graph and pricing one run, they replay a seeded
// multi-tenant job stream through the online scheduler, over a grid of
// platform shapes × stream seeds. The metric is the aggregate of job cycle
// times (finish − arrival summed over admitted jobs), so both service
// quality (placement) and queueing (packing) count, and every policy must
// pay for itself: an eviction or a migration that costs more than the wait
// it saves worsens its arm.
//
// A15 (sched) compares how the placement engine's topology awareness
// compounds over arrivals, departures and re-use of freed capacity; its arms
// differ only in the scheduler policy. A16 (sched2) keeps A15's
// topology-aware placement fixed and varies the queueing policies layered on
// top of it, on a harsher stream (see sched2Stream).

// schedArms are the arms of A15 in report order.
var schedArms = []arm[sched.Options]{
	// Walks the preferred→required tier ladder with fit scoring and affinity
	// layout.
	{"topo-aware", sched.Options{Policy: sched.TopoAware}},
	// Honors the hard required boundary but packs slot-order into the first
	// fitting domain.
	{"topo-blind", sched.Options{Policy: sched.TopoBlind}},
	// Ignores the constraints entirely and scatters round-robin.
	{"first-fit", sched.Options{Policy: sched.FirstFit}},
}

// sched2Arms are the arms of A16 in report order; every arm is
// topology-aware.
var sched2Arms = []arm[sched.Options]{
	// backfill plus priority preemption (a required-constrained arrival
	// checkpoints-and-requeues strictly-lower-priority jobs, charged at
	// checkpoint/respawn cost) and hysteresis-gated defragmentation (migrate
	// one running job to compact a domain, committing only when the head's
	// wait saving beats the migration bill).
	{"full", sched.Options{Policy: sched.TopoAware, Backfill: true, Preempt: true, Defrag: true}},
	// Conservative backfill: small jobs jump the head only when their whole
	// modeled service fits inside the head's earliest-feasible-start window,
	// so the head is never delayed.
	{"backfill", sched.Options{Policy: sched.TopoAware, Backfill: true}},
	// The plain A15 topo-aware arm: a blocked required-constrained head
	// stalls the whole queue.
	{"fifo", sched.Options{Policy: sched.TopoAware}},
}

// Both scheduler ablations replay each study's job stream on every
// schedShapes × stream seed grid cell under each arm. Every arm keeps the
// sched.Options defaults it does not name: best fit, waiting on a full
// required tier and a defragmentation threshold of 0.

// schedShapes are the platform specs of both studies' grids: a two-rack and
// a two-pod machine, so the ordering is asserted on both a 2-tier and a
// 3-tier domain ladder. The shapes are fixed (the arms must separate on
// known domain ladders, not track the A1 core count).
var schedShapes = []string{
	"rack:2 node:4 pack:2 core:4 pu:1",
	"pod:2 rack:2 node:2 pack:2 core:4 pu:1",
}

// schedStream is A15's job stream: jobs of 2e6 mean work cycles, 0.3 of
// them preferring a node and requiring a rack; the sched package's defaults
// fill the rest (sizes 4–16, 64KiB halos).
var schedStream = sched.StreamConfig{
	Jobs: 40, WorkCycles: 2e6, Churn: 4, ConstraintFraction: 0.3,
	PreferredTier: "node", RequiredTier: "rack",
}

// sched2Stream is A16's job stream, harsher than A15's: higher churn
// (deeper queues give backfill windows to fill) and a priority mix in which
// the required-constrained jobs outrank the unconstrained background (so
// preemption has lawful victims). Its size mix skews smaller — the short
// tail is what backfill packs into a blocked head's window, and cheap
// low-priority victims are what makes preemption affordable. A heavy tail
// of 8x-long residents opens real earliest-start windows behind a blocked
// head: without it, free capacity churns every few hundred thousand cycles
// and the conservative backfill window almost never fits a whole job.
// Halos smaller than A15's 64KiB keep working sets — and with them the
// checkpoint/migration bills — small enough that preemption and
// defragmentation can pay for themselves against the 50k-cycle-per-task
// migration floor.
var sched2Stream = sched.StreamConfig{
	Jobs: 48, Sizes: []int{2, 3, 4, 6, 8, 12, 16}, WorkCycles: 2e6, VolumeBytes: 4 << 10,
	Churn: 12, ConstraintFraction: 0.35, LongFraction: 0.2, LongFactor: 8,
	PreferredTier: "node", RequiredTier: "rack", PriorityClasses: 3,
}

// SchedCell is one (shape, seed) grid cell's scheduler report.
type SchedCell struct {
	Shape  string
	Seed   int64
	Report *sched.Report
}

// SchedResult reports one arm across the whole grid.
type SchedResult struct {
	// Seconds is the grid total of aggregate job cycle time (finish −
	// arrival summed over admitted jobs, converted at the default clock) —
	// the ordering metric of both ablations.
	Seconds float64
	// Admitted and Rejected total the grid's stream partition.
	Admitted, Rejected int
	// Backfills, Preemptions and DefragMigrations total the phase-2 policy
	// activity over the grid (zero in A15, whose arms enable none).
	Backfills, Preemptions, DefragMigrations int
	// FragmentationAvg and BusyUtilization are grid means of the per-run
	// packed-vs-fragmented metrics (see sched.Report).
	FragmentationAvg, BusyUtilization float64
	// Cells holds the per-cell reports, shape-major in grid order.
	Cells []SchedCell
}

// runSchedCell replays one seeded stream on one platform shape under one
// arm's scheduler options and returns the scheduler's report.
func runSchedCell(opts sched.Options, shape string, stream sched.StreamConfig) (*sched.Report, error) {
	jobs, err := sched.GenerateStream(stream)
	if err != nil {
		return nil, err
	}
	plat, err := numasim.NewPlatform(shape, numasim.Config{})
	if err != nil {
		return nil, err
	}
	s, err := sched.New(plat.Machine(), opts)
	if err != nil {
		return nil, err
	}
	return s.Run(jobs)
}

// runSchedGrid executes one arm over the full shape × seed grid of a
// study's stream.
func runSchedGrid(opts sched.Options, study sched.StreamConfig, seeds []int64) (SchedResult, error) {
	var res SchedResult
	var aggCycles, fragSum, utilSum float64
	for _, shape := range schedShapes {
		for _, seed := range seeds {
			study.Seed = seed
			rep, err := runSchedCell(opts, shape, study)
			if err != nil {
				return SchedResult{}, fmt.Errorf("shape %q seed %d: %w", shape, seed, err)
			}
			aggCycles += rep.AggregateCycles
			fragSum += rep.FragmentationAvg
			utilSum += rep.BusyUtilization
			res.Admitted += rep.Admitted
			res.Rejected += rep.Rejected
			res.Backfills += rep.Backfills
			res.Preemptions += rep.Preemptions
			res.DefragMigrations += rep.DefragMigrations
			res.Cells = append(res.Cells, SchedCell{Shape: shape, Seed: seed, Report: rep})
		}
	}
	cells := float64(len(res.Cells))
	res.Seconds = aggCycles / topology.DefaultAttrs().ClockHz
	res.FragmentationAvg = fragSum / cells
	res.BusyUtilization = utilSum / cells
	return res, nil
}

// ablationSched sweeps a scheduler study's arms over the grid, summed. The
// per-cell ordering (each shape and seed separately) is asserted by the
// experiment tests; the summed rows carry the same assertion into the bench
// pipeline.
func ablationSched(study string, arms []arm[sched.Options], stream sched.StreamConfig, seeds []int64, detail func(SchedResult) string) ([]AblationRow, error) {
	return sweep(study, study+"/", arms,
		func(opts sched.Options) (SchedResult, error) { return runSchedGrid(opts, stream, seeds) },
		func(_ arm[sched.Options], res SchedResult) AblationRow {
			return AblationRow{Seconds: res.Seconds, Detail: detail(res)}
		})
}

// AblationSched (A15) compares the scheduler policy arms: topo-aware <
// topo-blind < first-fit on aggregate job cycle time.
func AblationSched(cfg Config) ([]AblationRow, error) {
	return ablationSched("sched", schedArms, schedStream, schedSeeds(cfg), func(res SchedResult) string {
		return fmt.Sprintf("admitted=%d rejected=%d frag=%.3f util=%.3f cells=%d",
			res.Admitted, res.Rejected, res.FragmentationAvg, res.BusyUtilization, len(res.Cells))
	})
}

// AblationSched2 (A16) compares the phase-2 policy stack: full (backfill +
// preemption + defrag) < backfill-only < fifo on aggregate job cycle time.
func AblationSched2(cfg Config) ([]AblationRow, error) {
	return ablationSched("sched2", sched2Arms, sched2Stream, sched2Seeds(cfg), func(res SchedResult) string {
		return fmt.Sprintf("admitted=%d rejected=%d backfills=%d preempts=%d defrags=%d frag=%.3f util=%.3f cells=%d",
			res.Admitted, res.Rejected, res.Backfills, res.Preemptions, res.DefragMigrations,
			res.FragmentationAvg, res.BusyUtilization, len(res.Cells))
	})
}

// schedSeeds are A15's stream seeds. They derive from cfg.Seed so -seed
// still varies the workload: the reduced scale's seed 7 gives seeds 7 and
// 42.
func schedSeeds(cfg Config) []int64 { return []int64{cfg.Seed, cfg.Seed + 35} }

// sched2Seeds are A16's stream seeds, derived the same way (seed 7 gives
// seeds 8 and 37).
func sched2Seeds(cfg Config) []int64 { return []int64{cfg.Seed + 1, cfg.Seed + 30} }
