package experiment

import (
	"fmt"

	"repro/internal/orwl"
	"repro/internal/placement"
)

// The shift experiment (A12) is where the adaptive engine (A8) meets the
// multi-switch fabric (A10): a multi-node, multi-rack workload whose
// communication pattern rotates across the node and rack boundaries mid-run.
// The initial hierarchical placement is optimal for phase one — every heavy
// pair of node-sized blocks shares a rack — but after the shift the heavy
// pairs connect blocks that the phase-one layout parked in different racks,
// so every pair exchange funnels through the oversubscribed rack uplinks.
// One-shot placement cannot recover; an adaptive engine can, and how much it
// recovers depends on its candidate path: flat TreeMatch candidates re-group
// bottom-up and only stumble onto a decent layout, while hierarchical
// candidates re-run the full fabric pipeline (node partition + fabric-tree
// matching) on the observed window and swap whole blocks across racks —
// paying the uplink-priced migration bill the fabric-aware hysteresis
// weighed.

// ShiftConfig parameterizes one rack-crossing phase-shift run.
type ShiftConfig struct {
	// RackConfig shapes the platform and the stationary part of the stencil
	// exactly as in the A10 rack scenario, with two defaults of its own:
	// Iters 30 and BlockBytes 1 MiB (the data a task drags over the fabric
	// when migrated). Racks*NodesPerRack must be at least 4 and CoresPerNode
	// at least 2, so both phases' block pairings are well defined. PairBytes
	// is the traffic whose rack placement the phases rotate: phase one pairs
	// diametric blocks (b, b+B/2) — the A10 structure, which the fabric
	// matching co-racks; phase two pairs adjacent blocks (b, b^1), which
	// straddle the phase-one rack split.
	RackConfig
	// ShiftAt is the iteration after which the pattern shifts (default
	// 2*Iters/5, so the post-shift phase dominates the run).
	ShiftAt int
	// EpochIters is the re-placement interval (default 3).
	EpochIters int
	// Hysteresis and WindowDecay tune the adaptive engine (see
	// placement.AdaptiveOptions).
	Hysteresis, WindowDecay float64
}

func (c ShiftConfig) withDefaults() ShiftConfig {
	if c.Iters == 0 {
		c.Iters = 30
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 1 << 20
	}
	c.RackConfig = c.RackConfig.withDefaults()
	if c.ShiftAt == 0 {
		// The shift lands early (at 2/5 of the run) so the post-shift phase
		// dominates: one-shot placement spends most of the run wrong, and an
		// engine that migrates has time to amortize the bill.
		c.ShiftAt = max(c.Iters*2/5, 1)
	}
	if c.EpochIters == 0 {
		c.EpochIters = 3
	}
	return c
}

// Validate rejects configurations the shift pipeline cannot run.
func (c ShiftConfig) Validate() error {
	d := c.withDefaults()
	if err := d.RackConfig.Validate(); err != nil {
		return err
	}
	switch blocks := d.Racks * d.NodesPerRack; {
	case blocks < 4:
		return fmt.Errorf("experiment: shift scenario needs an even block count >= 4, got %d", blocks)
	case d.CoresPerNode < 2:
		return fmt.Errorf("experiment: invalid node shape %d cores / %d per socket", d.CoresPerNode, d.CoresPerSocket)
	case d.Iters < 2 || d.ShiftAt < 1 || d.ShiftAt >= d.Iters:
		return fmt.Errorf("experiment: shift at iteration %d outside the %d-iteration run", d.ShiftAt, d.Iters)
	case d.EpochIters < 1:
		return fmt.Errorf("experiment: epoch interval %d must be positive", d.EpochIters)
	}
	return nil
}

// shiftArms are the placement arms of the shift ablation in report order; a
// nil entry is the engine-less one-shot pipeline.
var shiftArms = []arm[*placement.AdaptiveOptions]{
	// The one-shot hierarchical pipeline — node partition plus fabric
	// matching from the static affinity matrix, never revisited. The speedup
	// base.
	{"static", nil},
	// The paper's flat pipeline made adaptive: TreeMatch on the whole fused
	// cluster tree both for the initial placement and for every epoch's
	// candidate — it reacts to the shift, but neither stage optimizes the
	// fabric cut explicitly.
	{"adaptive-flat", &placement.AdaptiveOptions{Base: placement.TreeMatch{}, Candidate: placement.TreeMatch{}}},
	// Hierarchical candidates: every epoch re-runs the node partition and
	// fabric-tree matching on the measured window, prices the inter-node
	// moves through the fabric hop walk, and refreshes the per-link
	// contention after committing.
	{"adaptive-fabric", &placement.AdaptiveOptions{Base: placement.Hierarchical{}, Candidate: placement.Hierarchical{}}},
	// adaptive-fabric with free migration and no hysteresis, the upper bound
	// on what re-placement could gain.
	{"oracle", &placement.AdaptiveOptions{Base: placement.Hierarchical{}, Candidate: placement.Hierarchical{}, FreeMigration: true}},
}

// ShiftResult reports one rack-crossing phase-shift run.
type ShiftResult struct {
	Mode    string
	Seconds float64
	// Stats is the adaptive engine's decision record (zero for static),
	// including the intra-node / cross-node / cross-rack move split.
	Stats placement.AdaptiveStats
}

// String renders a one-line summary.
func (r ShiftResult) String() string {
	return fmt.Sprintf("%-15s time=%8.3fs %s", r.Mode, r.Seconds, shiftDetail(r.Stats))
}

// shiftDetail renders the engine's decision counters with the cross-fabric
// move split.
func shiftDetail(st placement.AdaptiveStats) string {
	return fmt.Sprintf("%s cross-node=%d cross-rack=%d", adaptiveDetail(st), st.CrossNodeRebinds, st.CrossRackRebinds)
}

// shiftStencil is the rack-crossing phase-shift workload on the shared
// node-block workload (see blockStencil): the A10 rack stencil whose pair
// exchange rotates mid-run. Beyond its block's grid, task slot of block b
//
//   - exchanges PairBytes with task slot of the diametric partner block
//     (b+B/2)%B during phase one, and with task slot of the adjacent block
//     b^1 during phase two (the inactive partner carries 8 bytes; the
//     volumes swap at ShiftAt via Handle.SetVolume),
//   - and, for slot 0 only, exchanges LinkBytes with the neighbouring blocks
//     through both phases, so the affinity graph stays one component.
//
// With blocks numbered 0..B-1 and the fabric matching co-racking the
// phase-one diametric pairs {b, b+B/2}, the phase-two pairing (b, b^1)
// straddles the racks (each rack holds whole phase-one pairs, never both
// members of an adjacent pair), so a placement frozen at phase one funnels
// all pair traffic over the uplinks.
func shiftStencil(cfg ShiftConfig) blockStencil {
	s := rackStencil(cfg.RackConfig)
	blocks := len(s.sizes)
	s.extra = func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
		// Both pair handles exist for the whole run (the handle set is fixed
		// at build time); they are acquired after the link reads.
		p1 := task.NewHandleVol(at((b+blocks/2)%blocks, slot), orwl.Read, cfg.PairBytes, 0)
		p2 := task.NewHandleVol(at(b^1, slot), orwl.Read, phaseShiftEps, 0)
		reads := append(linkReads(task, b, slot, blocks, cfg.LinkBytes, at), p1, p2)
		return reads, func(it int) {
			if it == cfg.ShiftAt {
				// The pattern rotates across the rack boundaries: the
				// diametric partner goes quiet, the adjacent one wakes.
				p1.SetVolume(phaseShiftEps)
				p2.SetVolume(cfg.PairBytes)
			}
		}
	}
	return s
}

// RunShift executes the rack-crossing phase-shift workload under one
// placement mode (see shiftArms).
func RunShift(mode string, cfg ShiftConfig) (ShiftResult, error) {
	if err := cfg.Validate(); err != nil {
		return ShiftResult{}, err
	}
	a, err := armPolicy("shift", shiftArms, mode)
	if err != nil {
		return ShiftResult{}, err
	}
	res, err := runShift(a, cfg.withDefaults())
	res.Mode = mode
	return res, err
}

func runShift(a *placement.AdaptiveOptions, cfg ShiftConfig) (ShiftResult, error) {
	cluster, err := RackCluster(cfg.RackConfig)
	if err != nil {
		return ShiftResult{}, err
	}
	run, err := runStencil(cluster.Machine(), cfg.Seed, shiftStencil(cfg).build,
		placement.Hierarchical{}, tuned(a, cfg.EpochIters, cfg.Hysteresis, cfg.WindowDecay))
	if err != nil {
		return ShiftResult{}, err
	}
	return ShiftResult{Seconds: run.seconds, Stats: run.stats}, nil
}

// AblationShift (A12) compares the placement arms on the rack-crossing
// phase shift: static hierarchical, the adaptive engine with flat and with
// fabric-aware candidates, and the free-migration oracle.
func AblationShift(cfg ShiftConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return sweep("shift", shiftArms,
		func(a *placement.AdaptiveOptions) (ShiftResult, error) { return runShift(a, cfg) },
		func(a arm[*placement.AdaptiveOptions], res ShiftResult) AblationRow {
			detail := fmt.Sprintf("%d racks x %d nodes x %d cores", cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode)
			if a.policy != nil {
				detail = shiftDetail(res.Stats)
			}
			return AblationRow{Seconds: res.Seconds, Detail: detail}
		})
}

// ShiftConfigFrom derives the shift configuration from the common ablation
// Config: the A10 shape rule (RackConfigFrom) with a floor of 2 nodes per
// rack so both phases' pairings exist.
func ShiftConfigFrom(cfg Config) ShiftConfig {
	rc := RackConfigFrom(cfg)
	rc.NodesPerRack = max(rc.NodesPerRack, 2)
	return ShiftConfig{RackConfig: rc}
}
