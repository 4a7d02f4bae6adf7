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

// The fixed parts of the shift and fault scenarios: each task drags a 1 MiB
// block over the fabric when migrated, and the adaptive engine re-places
// every 3 iterations.
const (
	movedBlockBytes  = 1 << 20
	fabricEpochIters = 3
)

// shiftScenario builds the shift scenario on the A10 rack platform: the
// rack-skewed stencil (see RackConfig.scenario) with movedBlockBytes blocks,
// whose pair exchange rotates mid-run. Beyond its block's grid, task slot of
// block b
//
//   - exchanges rackPairBytes with task slot of the diametric partner block
//     (b+B/2)%B during phase one, and with task slot of the adjacent block
//     b^1 during phase two (the inactive partner carries 8 bytes; the
//     volumes swap via Handle.SetVolume after 2/5 of the iterations, so the
//     post-shift phase dominates: one-shot placement spends most of the run
//     wrong, and an engine that migrates has time to amortize the bill),
//   - and, for slot 0 only, exchanges linkBytes with the neighbouring blocks
//     through both phases, so the affinity graph stays one component.
//
// With blocks numbered 0..B-1 and the fabric matching co-racking the
// phase-one diametric pairs {b, b+B/2}, the phase-two pairing (b, b^1)
// straddles the racks (each rack holds whole phase-one pairs, never both
// members of an adjacent pair), so a placement frozen at phase one funnels
// all pair traffic over the uplinks. Both pairings need at least 4 blocks of
// at least 2 cores, and the shift needs at least 2 iterations.
func shiftScenario(cfg RackConfig) (scenario, error) {
	s, err := cfg.scenario()
	switch blocks := cfg.Racks * cfg.NodesPerRack; {
	case err != nil:
		return scenario{}, err
	case blocks < 4:
		return scenario{}, fmt.Errorf("experiment: shift scenario needs an even block count >= 4, got %d", blocks)
	case cfg.CoresPerNode < 2:
		return scenario{}, fmt.Errorf("experiment: shift scenario needs at least 2 cores per node, got %d", cfg.CoresPerNode)
	case cfg.Iters < 2:
		return scenario{}, fmt.Errorf("experiment: the shift needs at least 2 iterations, got %d", cfg.Iters)
	}
	blocks, shiftAt := len(s.stencil.sizes), max(cfg.Iters*2/5, 1)
	s.stencil.blockBytes = movedBlockBytes
	s.stencil.extra = func(task *orwl.Task, b, slot int, at locAt) ([]*orwl.Handle, func(int)) {
		// Both pair handles exist for the whole run (the handle set is fixed
		// at build time); they are acquired after the link reads.
		p1 := task.NewHandleVol(at((b+blocks/2)%blocks, slot), orwl.Read, rackPairBytes, 0)
		p2 := task.NewHandleVol(at(b^1, slot), orwl.Read, phaseShiftEps, 0)
		reads := append(linkReads(task, b, slot, blocks, at), p1, p2)
		return reads, func(it int) {
			if it == shiftAt {
				// The pattern rotates across the rack boundaries: the
				// diametric partner goes quiet, the adjacent one wakes.
				p1.SetVolume(phaseShiftEps)
				p2.SetVolume(rackPairBytes)
			}
		}
	}
	return s, nil
}

// shiftArms are the placement arms of the shift ablation in report order.
var shiftArms = []arm[fabricArm]{
	// The one-shot hierarchical pipeline — node partition plus fabric
	// matching from the static affinity matrix, never revisited. The speedup
	// base.
	{"static", fabricArm{policy: placement.Hierarchical{}}},
	// The paper's flat pipeline made adaptive: TreeMatch on the whole fused
	// cluster tree both for the initial placement and for every epoch's
	// candidate — it reacts to the shift, but neither stage optimizes the
	// fabric cut explicitly.
	{"adaptive-flat", fabricArm{adaptive: &placement.AdaptiveOptions{
		Base: placement.TreeMatch{}, Candidate: placement.TreeMatch{}, EpochIters: fabricEpochIters}}},
	// Hierarchical candidates: every epoch re-runs the node partition and
	// fabric-tree matching on the measured window, prices the inter-node
	// moves through the fabric hop walk, and refreshes the per-link
	// contention after committing.
	{"adaptive-fabric", fabricArm{adaptive: &placement.AdaptiveOptions{
		Base: placement.Hierarchical{}, Candidate: placement.Hierarchical{}, EpochIters: fabricEpochIters}}},
	// adaptive-fabric with free migration and no hysteresis, the upper bound
	// on what re-placement could gain.
	{"oracle", fabricArm{adaptive: &placement.AdaptiveOptions{
		Base: placement.Hierarchical{}, Candidate: placement.Hierarchical{}, EpochIters: fabricEpochIters, FreeMigration: true}}},
}

// shiftDetail renders the engine's decision counters with the cross-fabric
// move split.
func shiftDetail(st placement.AdaptiveStats) string {
	return fmt.Sprintf("%s cross-node=%d cross-rack=%d", adaptiveDetail(st), st.CrossNodeRebinds, st.CrossRackRebinds)
}

// AblationShift (A12) compares the placement arms on the rack-crossing
// phase shift: static hierarchical, the adaptive engine with flat and with
// fabric-aware candidates, and the free-migration oracle.
func AblationShift(cfg Config) ([]AblationRow, error) { return shiftRows(shiftConfigFrom(cfg)) }

// shiftRows runs the shift ablation on one shape.
func shiftRows(cfg RackConfig) ([]AblationRow, error) {
	s, err := shiftScenario(cfg)
	if err != nil {
		return nil, err
	}
	return s.sweep("shift", shiftArms, func(a fabricArm, r programRun) string {
		if a.adaptive == nil {
			return fmt.Sprintf("%d racks x %d nodes x %d cores", cfg.Racks, cfg.NodesPerRack, cfg.CoresPerNode)
		}
		return shiftDetail(r.stats)
	})
}

// shiftConfigFrom derives the shift configuration from the common ablation
// Config: the A10 shape rule (rackConfigFrom) with a floor of 2 nodes per
// rack so both phases' pairings exist, and 30 iterations.
func shiftConfigFrom(cfg Config) RackConfig {
	rc := rackConfigFrom(cfg)
	rc.NodesPerRack, rc.Iters = max(rc.NodesPerRack, 2), 30
	return rc
}
