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

// FaultEventSpec is one scheduled platform failure in experiment
// coordinates: a kill names a cluster node, an edge fault names a fabric
// tree level and link index (resolved to a fabric-graph edge id by
// BuildFaultSchedule, so configurations stay readable across platform
// shapes).
type FaultEventSpec struct {
	// Epoch is the 1-based adaptive epoch at which the failure strikes.
	Epoch int
	// Kind is the failure type (kill node, degrade edge, sever edge).
	Kind topology.FaultKind
	// Node is the cluster node to kill (FaultKillNode only).
	Node int
	// Level and Link name the fabric edge for edge faults: level 0 holds the
	// per-node NIC links, level 1 the per-rack uplinks.
	Level, Link int
	// Factor is the remaining bandwidth fraction of a degrade, in (0,1).
	Factor float64
}

// FaultConfig parameterizes one fault-injection run.
type FaultConfig struct {
	// RackConfig shapes the platform and the stencil as in the A10 rack
	// scenario, with movedBlockBytes blocks.
	RackConfig
}

// events returns the fault schedule in experiment coordinates: the
// correlated half-failure of a real incident. The first node of rack 1 dies
// — orphaning a whole block, whose evacuation across racks the uplink
// degrade then punishes — and its rack's uplink drops to half bandwidth,
// both at the epoch closest to 2/5 of the run (the A12 shift point), so the
// degraded phase dominates and recovery quality decides the ranking.
func (c FaultConfig) events() []FaultEventSpec {
	epoch := max(c.Iters/fabricEpochIters*2/5, 1)
	return []FaultEventSpec{
		{Epoch: epoch, Kind: topology.FaultKillNode, Node: c.NodesPerRack},
		{Epoch: epoch, Kind: topology.FaultDegradeEdge, Level: 1, Link: 1, Factor: 0.5},
	}
}

// scenario builds the fault scenario: the rack scenario with its failure
// schedule. Edge coordinates are resolved (and range-checked) against the
// built platform by BuildFaultSchedule.
func (c FaultConfig) scenario() (scenario, error) {
	s, err := c.RackConfig.scenario()
	if err != nil {
		return scenario{}, err
	}
	s.stencil.blockBytes, s.faults = movedBlockBytes, c.events()
	epochs := c.Iters / fabricEpochIters
	for _, ev := range s.faults {
		if ev.Epoch > epochs {
			return scenario{}, fmt.Errorf("experiment: fault epoch %d beyond the run (%d iterations / %d per epoch = %d epochs)",
				ev.Epoch, c.Iters, fabricEpochIters, epochs)
		}
	}
	return s, nil
}

// BuildFaultSchedule resolves experiment-coordinate fault specs against a
// built platform topology: edge faults name a fabric tree (level, link) pair
// and resolve to the graph's edge id. The resulting schedule is validated
// against the topology, so conflicting or impossible events fail here, not
// mid-run.
func BuildFaultSchedule(topo *topology.Topology, specs []FaultEventSpec) (*topology.FaultSchedule, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	g := topo.FabricGraph()
	if g == nil {
		return nil, fmt.Errorf("experiment: fault schedule needs a multi-node fabric")
	}
	s := &topology.FaultSchedule{}
	for _, spec := range specs {
		ev := topology.FaultEvent{Epoch: spec.Epoch, Kind: spec.Kind, Node: spec.Node, Factor: spec.Factor}
		if spec.Kind == topology.FaultDegradeEdge || spec.Kind == topology.FaultSeverEdge {
			if spec.Level < 0 || spec.Level >= g.NumLevels() {
				return nil, fmt.Errorf("experiment: fault names fabric level %d (have %d)", spec.Level, g.NumLevels())
			}
			links := g.LevelEdges(spec.Level)
			if spec.Link < 0 || spec.Link >= len(links) {
				return nil, fmt.Errorf("experiment: fault names link %d of fabric level %d (have %d)",
					spec.Link, spec.Level, len(links))
			}
			ev.Edge = links[spec.Link]
		}
		s.Events = append(s.Events, ev)
	}
	if err := s.Validate(topo); err != nil {
		return nil, err
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
func AblationFault(cfg FaultConfig) ([]AblationRow, error) {
	s, err := cfg.scenario()
	if err != nil {
		return nil, err
	}
	return s.sweep("fault", faultArms, func(_ fabricArm, r programRun) string { return faultDetail(r.stats) })
}

// FaultConfigFrom derives the fault configuration from the common ablation
// Config: the A10 shape rule (RackConfigFrom) with 30 iterations and a floor
// of 4 nodes per rack. A 2-node rack is degenerate for fault handling: with
// only 3 survivors every refuge choice doubles up the same way, and the arms
// cannot separate.
func FaultConfigFrom(cfg Config) FaultConfig {
	rc := RackConfigFrom(cfg)
	rc.NodesPerRack, rc.Iters = max(rc.NodesPerRack, 4), 30
	return FaultConfig{RackConfig: rc}
}
