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
// top of it, on a harsher stream (see sched2Defaults).

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

// SchedConfig parameterizes both scheduler ablations: a grid of platform
// shapes × stream seeds, every cell replaying the same seeded workload under
// each arm. The zero value is A15's grid; RunSched2 and AblationSched2 fill
// unset fields with A16's defaults instead (see sched2Defaults).
type SchedConfig struct {
	// Shapes are the platform specs of the grid (default: a two-rack and a
	// two-pod machine, so the ordering is asserted on both a 2-tier and a
	// 3-tier domain ladder).
	Shapes []string
	// Seeds are the stream seeds of the grid (default 7 and 42).
	Seeds []int64
	// Stream knobs (see sched.StreamConfig); zero values pick that package's
	// defaults, except the constraint knobs, which default here to 0.3 of
	// jobs preferring a node and requiring a rack.
	Jobs               int
	Sizes              []int
	Churn              float64
	ConstraintFraction float64
	PriorityClasses    int
	PreferredTier      string
	RequiredTier       string
	WorkCycles         float64
	VolumeBytes        float64
	LongFraction       float64
	LongFactor         float64
	// DefragThreshold arms the defragmentation of A16's full arm
	// (fragmentation weight in [0,1]; negative means 0 = always armed when
	// the head is blocked).
	DefragThreshold float64
	// Fit and Queue select the domain scoring rule and the full-required
	// policy of every arm (defaults: best-fit, wait).
	Fit   sched.Fit
	Queue sched.QueuePolicy
}

func (c SchedConfig) withDefaults() SchedConfig {
	if c.Shapes == nil {
		c.Shapes = []string{
			"rack:2 node:4 pack:2 core:4 pu:1",
			"pod:2 rack:2 node:2 pack:2 core:4 pu:1",
		}
	}
	if c.Seeds == nil {
		c.Seeds = []int64{7, 42}
	}
	if c.Jobs == 0 {
		c.Jobs = 40
	}
	if c.Churn == 0 {
		c.Churn = 4
	}
	if c.ConstraintFraction == 0 {
		c.ConstraintFraction = 0.3
	}
	if c.PreferredTier == "" {
		c.PreferredTier = "node"
	}
	if c.RequiredTier == "" {
		c.RequiredTier = "rack"
	}
	if c.DefragThreshold < 0 {
		c.DefragThreshold = 0
	}
	return c
}

// sched2Defaults fills unset fields with A16's stream, harsher than A15's:
// higher churn (deeper queues give backfill windows to fill) and a priority
// mix in which the required-constrained jobs outrank the unconstrained
// background (so preemption has lawful victims). Whatever it leaves unset
// takes the common defaults.
func (c SchedConfig) sched2Defaults() SchedConfig {
	if c.Seeds == nil {
		c.Seeds = []int64{8, 37}
	}
	if c.Jobs == 0 {
		c.Jobs = 48
	}
	if c.Sizes == nil {
		// A16's mix skews smaller than A15's: the short tail is what
		// backfill packs into a blocked head's window, and cheap
		// low-priority victims are what makes preemption affordable.
		c.Sizes = []int{2, 3, 4, 6, 8, 12, 16}
	}
	if c.Churn == 0 {
		c.Churn = 12
	}
	if c.ConstraintFraction == 0 {
		c.ConstraintFraction = 0.35
	}
	if c.LongFraction == 0 {
		// A heavy tail of 8x-long residents is what opens real
		// earliest-start windows behind a blocked head: without it, free
		// capacity churns every few hundred thousand cycles and the
		// conservative backfill window almost never fits a whole job.
		c.LongFraction = 0.2
	}
	if c.LongFactor == 0 {
		c.LongFactor = 8
	}
	if c.VolumeBytes == 0 {
		// Smaller halos than A15's 64KiB keep working sets — and with
		// them the checkpoint/migration bills — small enough that
		// preemption and defragmentation can actually pay for
		// themselves against the 50k-cycle-per-task migration floor.
		c.VolumeBytes = 4 << 10
	}
	if c.PriorityClasses == 0 {
		c.PriorityClasses = 3
	}
	return c.withDefaults()
}

// streamConfig builds the generator configuration of one grid cell.
func (c SchedConfig) streamConfig(seed int64) sched.StreamConfig {
	return sched.StreamConfig{
		Jobs:               c.Jobs,
		Seed:               seed,
		Sizes:              c.Sizes,
		WorkCycles:         c.WorkCycles,
		VolumeBytes:        c.VolumeBytes,
		Churn:              c.Churn,
		ConstraintFraction: c.ConstraintFraction,
		LongFraction:       c.LongFraction,
		LongFactor:         c.LongFactor,
		PreferredTier:      c.PreferredTier,
		RequiredTier:       c.RequiredTier,
		PriorityClasses:    c.PriorityClasses,
	}
}

// Validate rejects configurations the scheduler pipeline cannot run, before
// any cell runs.
func (c SchedConfig) Validate() error {
	d := c.withDefaults()
	if len(d.Shapes) == 0 {
		return fmt.Errorf("experiment: sched needs at least one platform shape")
	}
	for _, spec := range d.Shapes {
		if _, err := topology.FromSpec(spec); err != nil {
			return fmt.Errorf("experiment: sched shape %q: %w", spec, err)
		}
	}
	if len(d.Seeds) == 0 {
		return fmt.Errorf("experiment: sched needs at least one stream seed")
	}
	for _, seed := range d.Seeds {
		if err := d.streamConfig(seed).Validate(); err != nil {
			return err
		}
	}
	if d.DefragThreshold > 1 {
		return fmt.Errorf("experiment: sched defrag threshold %v out of range [0,1]", d.DefragThreshold)
	}
	// The generator's constraint tiers are validated per job; probe them
	// here so a misspelled tier fails up front.
	probe := sched.JobSpec{
		Name: "probe", Tasks: 1,
		Preferred: d.PreferredTier, Required: d.RequiredTier,
	}
	return probe.Validate()
}

// SchedCell is one (shape, seed) grid cell's scheduler report.
type SchedCell struct {
	Shape  string
	Seed   int64
	Report *sched.Report
}

// SchedResult reports one arm across the whole grid.
type SchedResult struct {
	Mode string
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

// String renders a one-line summary.
func (r SchedResult) String() string {
	return fmt.Sprintf("%-11s agg=%9.3fs admitted=%d rejected=%d backfills=%d preempts=%d defrags=%d frag=%.3f util=%.3f",
		r.Mode, r.Seconds, r.Admitted, r.Rejected, r.Backfills, r.Preemptions, r.DefragMigrations,
		r.FragmentationAvg, r.BusyUtilization)
}

// runSchedCell replays one seeded stream on one platform shape under one
// arm's scheduler options and returns the scheduler's report.
func runSchedCell(opts sched.Options, shape string, seed int64, cfg SchedConfig) (*sched.Report, error) {
	jobs, err := sched.GenerateStream(cfg.streamConfig(seed))
	if err != nil {
		return nil, err
	}
	plat, err := numasim.NewPlatform(shape, numasim.Config{})
	if err != nil {
		return nil, err
	}
	opts.Fit, opts.Queue = cfg.Fit, cfg.Queue
	if opts.Defrag {
		opts.DefragThreshold = cfg.DefragThreshold
	}
	s, err := sched.New(plat.Machine(), opts)
	if err != nil {
		return nil, err
	}
	return s.Run(jobs)
}

// runSchedGrid executes one arm over the full shape × seed grid.
func runSchedGrid(opts sched.Options, cfg SchedConfig) (SchedResult, error) {
	var res SchedResult
	var aggCycles, fragSum, utilSum float64
	for _, shape := range cfg.Shapes {
		for _, seed := range cfg.Seeds {
			rep, err := runSchedCell(opts, shape, seed, cfg)
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

// runSched is the single-arm entry point behind RunSched and RunSched2; cfg
// carries the study's defaults already.
func runSched(study string, arms []arm[sched.Options], mode string, cfg SchedConfig) (SchedResult, error) {
	if err := cfg.Validate(); err != nil {
		return SchedResult{}, err
	}
	opts, err := armPolicy(study, arms, mode)
	if err != nil {
		return SchedResult{}, err
	}
	res, err := runSchedGrid(opts, cfg)
	res.Mode = mode
	return res, err
}

// ablationSched sweeps a scheduler study's arms over the grid, summed. The
// per-cell ordering (each shape and seed separately) is asserted by the
// experiment tests; the summed rows carry the same assertion into the bench
// pipeline.
func ablationSched(study string, arms []arm[sched.Options], cfg SchedConfig, detail func(SchedResult) string) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return sweep(study, arms,
		func(opts sched.Options) (SchedResult, error) { return runSchedGrid(opts, cfg) },
		func(_ arm[sched.Options], res SchedResult) AblationRow {
			return AblationRow{Seconds: res.Seconds, Detail: detail(res)}
		})
}

// RunSched executes one A15 policy arm over the full shape × seed grid.
func RunSched(mode string, cfg SchedConfig) (SchedResult, error) {
	return runSched("sched", schedArms, mode, cfg.withDefaults())
}

// AblationSched (A15) compares the scheduler policy arms: topo-aware <
// topo-blind < first-fit on aggregate job cycle time.
func AblationSched(cfg SchedConfig) ([]AblationRow, error) {
	return ablationSched("sched", schedArms, cfg.withDefaults(), func(res SchedResult) string {
		return fmt.Sprintf("admitted=%d rejected=%d frag=%.3f util=%.3f cells=%d",
			res.Admitted, res.Rejected, res.FragmentationAvg, res.BusyUtilization, len(res.Cells))
	})
}

// RunSched2 executes one A16 arm over the full shape × seed grid.
func RunSched2(mode string, cfg SchedConfig) (SchedResult, error) {
	return runSched("sched2", sched2Arms, mode, cfg.sched2Defaults())
}

// AblationSched2 (A16) compares the phase-2 policy stack: full (backfill +
// preemption + defrag) < backfill-only < fifo on aggregate job cycle time.
func AblationSched2(cfg SchedConfig) ([]AblationRow, error) {
	return ablationSched("sched2", sched2Arms, cfg.sched2Defaults(), func(res SchedResult) string {
		return fmt.Sprintf("admitted=%d rejected=%d backfills=%d preempts=%d defrags=%d frag=%.3f util=%.3f cells=%d",
			res.Admitted, res.Rejected, res.Backfills, res.Preemptions, res.DefragMigrations,
			res.FragmentationAvg, res.BusyUtilization, len(res.Cells))
	})
}

// SchedConfigFrom derives the A15 configuration from the common ablation
// Config: the grid shapes are fixed (the arms must separate on known domain
// ladders, not track the A1 core count), and the stream seeds derive from
// cfg.Seed so -seed still varies the workload.
func SchedConfigFrom(cfg Config) SchedConfig {
	cfg = cfg.withDefaults()
	return SchedConfig{Seeds: []int64{cfg.Seed, cfg.Seed + 35}}
}

// Sched2ConfigFrom derives the A16 configuration the same way (the default
// ablation seed 7 reproduces the default A16 grid seeds 8 and 37).
func Sched2ConfigFrom(cfg Config) SchedConfig {
	cfg = cfg.withDefaults()
	return SchedConfig{Seeds: []int64{cfg.Seed + 1, cfg.Seed + 30}}
}
