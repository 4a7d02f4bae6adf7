package experiment

import (
	"fmt"

	"repro/internal/placement"
	"repro/internal/topology"
)

// The fault experiment (A14) is the resilience sibling of the phase-shift
// scenario (A12): the same rack-skewed stencil as A10, but what changes
// mid-run is the platform, not the pattern. At 2/5 of the run one node of
// rack 1 dies and its rack uplink degrades (the correlated half-failure of a
// real incident), so the runtime must evacuate the dead node's tasks into
// surviving capacity and keep going on a degraded fabric. The arms differ in
// how they pick the refuge and whether they keep adapting: static-with-
// respawn deals the orphans round-robin and never revisits anything,
// fault-blind evacuates first-fit and keeps the candidate loop alive, and
// fault-aware steers the orphaned block next to its heaviest surviving
// partners under the degraded prices. The spread arm additionally hardens
// the *initial* placement: Hierarchical.SpreadDomains forces the heaviest-
// coupled block pair onto different racks up front, trading a little
// locality for blast-radius isolation.

// faultScenario builds the fault scenario: the rack scenario with
// movedBlockBytes blocks and the correlated half-failure of a real incident.
// The first node of rack 1 dies — orphaning a whole block, whose evacuation
// across racks the uplink degrade then punishes — and its rack's uplink
// drops to half bandwidth, both at the epoch closest to 2/5 of the run (the
// A12 shift point), so the degraded phase dominates and recovery quality
// decides the ranking. The uplink is looked up on each arm's platform, and
// PlaceAdaptive validates the schedule against it.
func faultScenario(c RackConfig) (scenario, error) {
	s, err := c.scenario()
	if err != nil {
		return scenario{}, err
	}
	epoch := max(c.Iters/fabricEpochIters*2/5, 1)
	s.stencil.blockBytes = movedBlockBytes
	s.faults = func(g *topology.FabricGraph) *topology.FaultSchedule {
		return &topology.FaultSchedule{Events: []topology.FaultEvent{
			{Epoch: epoch, Kind: topology.FaultKillNode, Node: c.NodesPerRack},
			{Epoch: epoch, Kind: topology.FaultDegradeEdge, Edge: g.LevelEdges(1)[1], Factor: 0.5},
		}}
	}
	return s, nil
}

// faultArms are the arms of the fault ablation in report order. Every arm
// runs the engine with hierarchical candidates; they differ in the initial
// placement and in how the engine handles the failure.
var faultArms = []arm[fabricArm]{
	// The engine evacuates the dead node's tasks next to their heaviest
	// surviving partners under the degraded fabric prices, and keeps
	// adapting afterwards. The speedup base.
	{"fault-aware", faultArm(placement.Hierarchical{}, placement.FaultAware)},
	// fault-aware on top of a SpreadDomains initial placement (the critical
	// block pair starts rack-separated).
	{"spread", faultArm(placement.Hierarchical{SpreadDomains: true}, placement.FaultAware)},
	// The engine evacuates first-fit in node order, then keeps adapting.
	{"fault-blind", faultArm(placement.Hierarchical{}, placement.FaultBlind)},
	// The one-shot placement with forced round-robin respawn of the orphans
	// — no adaptation at all.
	{"static-respawn", faultArm(placement.Hierarchical{}, placement.FaultRespawn)},
}

// faultArm is the engine of one fault arm: the initial policy, hierarchical
// candidates every fabricEpochIters iterations, and the failure handling.
func faultArm(base placement.Policy, mode placement.FaultMode) fabricArm {
	return fabricArm{adaptive: &placement.AdaptiveOptions{
		Base: base, Candidate: placement.Hierarchical{}, EpochIters: fabricEpochIters, FaultMode: mode}}
}

// faultDetail renders the engine's fault-handling counters.
func faultDetail(st placement.AdaptiveStats) string {
	return fmt.Sprintf("faults=%d evac=%d rebinds=%d cross-rack=%d",
		st.FaultEpochs, st.Evacuations, st.Rebinds, st.CrossRackRebinds)
}

// AblationFault (A14) compares the fault-handling arms on the rack-skewed
// stencil with a mid-run correlated failure.
func AblationFault(cfg Config) ([]AblationRow, error) { return faultRows(faultConfigFrom(cfg)) }

// faultRows runs the fault ablation on one shape.
func faultRows(cfg RackConfig) ([]AblationRow, error) {
	s, err := faultScenario(cfg)
	if err != nil {
		return nil, err
	}
	return s.sweep("fault", faultArms, func(_ fabricArm, r programRun) string { return faultDetail(r.stats) })
}

// faultConfigFrom derives the fault shape from the common ablation Config:
// the A10 shape rule (rackConfigFrom) with 30 iterations and a floor of 4
// nodes per rack. A 2-node rack is degenerate for fault handling: with only
// 3 survivors every refuge choice doubles up the same way, and the arms
// cannot separate.
func faultConfigFrom(cfg Config) RackConfig {
	rc := rackConfigFrom(cfg)
	rc.NodesPerRack, rc.Iters = max(rc.NodesPerRack, 4), 30
	return rc
}
