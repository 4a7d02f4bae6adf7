package sched

import (
	"fmt"
	"math"
	"math/rand"
)

// StreamConfig parameterizes the seeded workload generator. The generator is
// platform-agnostic: it emits JobSpecs whose constraint tiers are chosen
// from the configured names, and the scheduler validates them against the
// actual platform at admission time.
type StreamConfig struct {
	// Jobs is the stream length.
	Jobs int
	// Seed drives every random draw; identical configs give identical
	// streams.
	Seed int64
	// Sizes is the task-count mix jobs draw from uniformly. Every size
	// must have a stencil factorization (the generator picks the most
	// square one).
	Sizes []int
	// WorkCycles is the mean compute demand; each job draws uniformly in
	// [0.5, 1.5) of it.
	WorkCycles float64
	// VolumeBytes is the per-edge communication volume.
	VolumeBytes float64
	// Churn scales the arrival rate: mean interarrival = WorkCycles/Churn,
	// so higher churn overlaps more jobs and fragments the machine harder.
	Churn float64
	// ConstraintFraction of jobs carry topology constraints
	// (preferred=PreferredTier, required=RequiredTier).
	ConstraintFraction float64
	// PreferredTier and RequiredTier are the constraint tiers of the
	// constrained fraction ("" disables that side).
	PreferredTier, RequiredTier string
	// LongFraction makes the work distribution heavy-tailed: that
	// fraction of jobs multiplies its drawn work by LongFactor (default
	// 8 when unset). 0 disables the tail and consumes no extra random
	// draws, keeping phase-1 streams bit-identical. Long residents are
	// what gives a blocked head a real earliest-start window — the gap
	// conservative backfill packs short jobs into.
	LongFraction, LongFactor float64
	// PriorityClasses enables priority generation: when > 1, every
	// constrained job draws a priority uniformly in [1, PriorityClasses)
	// while unconstrained jobs stay at priority 0 — exactly the mix the
	// preemption policy acts on (required-constrained arrivals outrank
	// the flexible background jobs they may evict). 0 or 1 leaves every
	// job at priority 0 and consumes no extra random draws, so phase-1
	// streams are bit-identical to their pre-priority form.
	PriorityClasses int
}

func (cfg StreamConfig) withDefaults() StreamConfig {
	if cfg.Jobs == 0 {
		cfg.Jobs = 40
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{4, 6, 8, 12, 16}
	}
	if cfg.WorkCycles == 0 {
		cfg.WorkCycles = 2e6
	}
	if cfg.VolumeBytes == 0 {
		cfg.VolumeBytes = 64 << 10
	}
	if cfg.Churn == 0 {
		cfg.Churn = 4
	}
	if cfg.LongFraction > 0 && cfg.LongFactor == 0 {
		cfg.LongFactor = 8
	}
	return cfg
}

// Validate rejects unusable stream parameters.
func (cfg StreamConfig) Validate() error {
	cfg = cfg.withDefaults()
	if cfg.Jobs < 1 || cfg.Jobs > 1<<20 {
		return fmt.Errorf("sched: stream jobs %d out of range", cfg.Jobs)
	}
	if cfg.Churn <= 0 || math.IsNaN(cfg.Churn) || math.IsInf(cfg.Churn, 0) {
		return fmt.Errorf("sched: stream churn %v out of range", cfg.Churn)
	}
	if cfg.ConstraintFraction < 0 || cfg.ConstraintFraction > 1 || math.IsNaN(cfg.ConstraintFraction) {
		return fmt.Errorf("sched: constraint fraction %v out of range [0,1]", cfg.ConstraintFraction)
	}
	for _, n := range cfg.Sizes {
		if n < 1 {
			return fmt.Errorf("sched: stream size %d out of range", n)
		}
	}
	if cfg.PriorityClasses < 0 || cfg.PriorityClasses > 100 {
		return fmt.Errorf("sched: priority classes %d out of range [0,100]", cfg.PriorityClasses)
	}
	if cfg.LongFraction < 0 || cfg.LongFraction > 1 || math.IsNaN(cfg.LongFraction) {
		return fmt.Errorf("sched: long fraction %v out of range [0,1]", cfg.LongFraction)
	}
	if cfg.LongFraction > 0 && (cfg.LongFactor < 1 || cfg.LongFactor > 1000 || math.IsNaN(cfg.LongFactor)) {
		return fmt.Errorf("sched: long factor %v out of range [1,1000]", cfg.LongFactor)
	}
	return nil
}

// squarestDims returns the most square WxH factorization of n (W >= H).
func squarestDims(n int) (int, int) {
	for h := int(math.Sqrt(float64(n))); h >= 1; h-- {
		if n%h == 0 {
			return n / h, h
		}
	}
	return n, 1
}

// GenerateStream emits a deterministic job stream: arrivals are a Poisson
// process at rate Churn/WorkCycles, task graphs are seed-scrambled stencils
// (so slot-order placement scatters the heavy edges), and a configured
// fraction of jobs carries required/preferred topology constraints.
func GenerateStream(cfg StreamConfig) ([]JobSpec, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	arrive := 0.0
	mean := cfg.WorkCycles / cfg.Churn
	jobs := make([]JobSpec, 0, cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		arrive += float64(rng.ExpFloat64() * mean)
		tasks := cfg.Sizes[rng.Intn(len(cfg.Sizes))]
		w, h := squarestDims(tasks)
		work := math.Floor(cfg.WorkCycles * (0.5 + float64(rng.Float64())))
		if cfg.LongFraction > 0 && rng.Float64() < cfg.LongFraction {
			work = math.Floor(work * cfg.LongFactor)
		}
		spec := JobSpec{
			Name:         fmt.Sprintf("j%03d", i),
			ArriveCycles: math.Floor(arrive),
			WorkCycles:   work,
			Tasks:        tasks,
			Pattern:      fmt.Sprintf("stencil:%dx%d@%d", w, h, rng.Int63n(1<<31)),
			VolumeBytes:  cfg.VolumeBytes,
		}
		if rng.Float64() < cfg.ConstraintFraction {
			spec.Preferred = cfg.PreferredTier
			spec.Required = cfg.RequiredTier
			if cfg.PriorityClasses > 1 {
				spec.Priority = 1 + rng.Intn(cfg.PriorityClasses-1)
			}
		}
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		jobs = append(jobs, spec)
	}
	return jobs, nil
}
