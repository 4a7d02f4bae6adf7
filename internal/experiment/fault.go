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
	// RackConfig shapes the platform and the stencil exactly as in the A10
	// rack scenario, with three defaults of its own: Iters 30, BlockBytes
	// 1 MiB and NodesPerRack 4. The default rack is wider than A10's because
	// a 2-node rack is degenerate for fault handling: with only 3 survivors
	// every refuge choice doubles up the same way, and the arms cannot
	// separate.
	RackConfig
	// EpochIters is the re-placement interval (default 3).
	EpochIters int
	// KillNode is the cluster node that dies (default: node NodesPerRack,
	// the first node of rack 1; -1 disables the default failure so only
	// Events apply). KillEpoch is the 1-based epoch it dies at (default:
	// the epoch closest to 2/5 of the run, matching A12's shift point).
	KillNode, KillEpoch int
	// DegradeFactor is the remaining bandwidth of the killed node's rack
	// uplink after the correlated degrade (default 0.5; negative disables
	// the degrade half of the default failure).
	DegradeFactor float64
	// Events overrides the default kill+degrade schedule entirely when
	// non-nil (experiment coordinates; see FaultEventSpec).
	Events []FaultEventSpec
	// Hysteresis and WindowDecay tune the adaptive engine.
	Hysteresis, WindowDecay float64
}

func (c FaultConfig) withDefaults() FaultConfig {
	if c.NodesPerRack == 0 {
		c.NodesPerRack = 4
	}
	if c.Iters == 0 {
		c.Iters = 30
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 1 << 20
	}
	c.RackConfig = c.RackConfig.withDefaults()
	if c.EpochIters == 0 {
		c.EpochIters = 3
	}
	if c.KillNode == 0 {
		// The first node of rack 1: the kill orphans a whole block and the
		// correlated uplink degrade punishes evacuating it across racks.
		c.KillNode = c.NodesPerRack
	}
	if c.KillEpoch == 0 {
		// The failure lands at 2/5 of the run — the A12 shift point — so the
		// degraded phase dominates and recovery quality decides the ranking.
		c.KillEpoch = max(c.Iters/c.EpochIters*2/5, 1)
	}
	if c.DegradeFactor == 0 {
		c.DegradeFactor = 0.5
	}
	return c
}

// effectiveEvents returns the fault schedule in experiment coordinates: the
// explicit Events override when set, else the default correlated failure —
// KillNode dies at KillEpoch and its rack's uplink drops to DegradeFactor.
func (c FaultConfig) effectiveEvents() []FaultEventSpec {
	if c.Events != nil {
		return c.Events
	}
	if c.KillNode < 0 {
		return nil
	}
	events := []FaultEventSpec{
		{Epoch: c.KillEpoch, Kind: topology.FaultKillNode, Node: c.KillNode},
	}
	if c.DegradeFactor > 0 {
		events = append(events, FaultEventSpec{
			Epoch: c.KillEpoch, Kind: topology.FaultDegradeEdge,
			Level: 1, Link: c.KillNode / c.NodesPerRack, Factor: c.DegradeFactor,
		})
	}
	return events
}

// Validate rejects configurations the fault pipeline cannot run.
func (c FaultConfig) Validate() error {
	d := c.withDefaults()
	if err := d.RackConfig.Validate(); err != nil {
		return err
	}
	if d.EpochIters < 1 {
		return fmt.Errorf("experiment: epoch interval %d must be positive", d.EpochIters)
	}
	nodes := d.Racks * d.NodesPerRack
	epochs := d.Iters / d.EpochIters
	for _, ev := range d.effectiveEvents() {
		if ev.Epoch < 1 {
			return fmt.Errorf("experiment: fault epoch %d is not 1-based", ev.Epoch)
		}
		if ev.Epoch > epochs {
			return fmt.Errorf("experiment: fault epoch %d beyond the run (%d iterations / %d per epoch = %d epochs)",
				ev.Epoch, d.Iters, d.EpochIters, epochs)
		}
		switch ev.Kind {
		case topology.FaultKillNode:
			if ev.Node < 0 || ev.Node >= nodes {
				return fmt.Errorf("experiment: fault kills unknown cluster node %d (have %d)", ev.Node, nodes)
			}
		case topology.FaultDegradeEdge:
			if !(ev.Factor > 0 && ev.Factor < 1) {
				return fmt.Errorf("experiment: degrade factor %v outside (0,1)", ev.Factor)
			}
		case topology.FaultSeverEdge:
			// Edge coordinates are resolved (and range-checked) against the
			// built platform by BuildFaultSchedule.
		default:
			return fmt.Errorf("experiment: unknown fault kind %d", ev.Kind)
		}
	}
	return nil
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
var faultArms = []arm[*placement.AdaptiveOptions]{
	// The engine evacuates the dead node's tasks next to their heaviest
	// surviving partners under the degraded fabric prices, and keeps
	// adapting afterwards. The speedup base.
	{"fault-aware", &placement.AdaptiveOptions{Base: placement.Hierarchical{}, FaultMode: placement.FaultAware}},
	// fault-aware on top of a SpreadDomains initial placement (the critical
	// block pair starts rack-separated).
	{"spread", &placement.AdaptiveOptions{Base: placement.Hierarchical{SpreadDomains: true}, FaultMode: placement.FaultAware}},
	// The engine evacuates first-fit in node order, then keeps adapting.
	{"fault-blind", &placement.AdaptiveOptions{Base: placement.Hierarchical{}, FaultMode: placement.FaultBlind}},
	// The one-shot placement with forced round-robin respawn of the orphans
	// — no adaptation at all.
	{"static-respawn", &placement.AdaptiveOptions{Base: placement.Hierarchical{}, FaultMode: placement.FaultRespawn}},
}

// FaultResult reports one fault-injection run.
type FaultResult struct {
	Seconds float64
	// Stats is the adaptive engine's decision record, including the fault
	// epoch count, the forced evacuations and their modeled bill.
	Stats placement.AdaptiveStats
}

// faultDetail renders the engine's fault-handling counters.
func faultDetail(st placement.AdaptiveStats) string {
	return fmt.Sprintf("faults=%d evac=%d rebinds=%d cross-rack=%d",
		st.FaultEpochs, st.Evacuations, st.Rebinds, st.CrossRackRebinds)
}

// runFault executes the rack-skewed stencil under one fault-handling arm
// (see faultArms); cfg carries its defaults already.
func runFault(a *placement.AdaptiveOptions, cfg FaultConfig) (FaultResult, error) {
	cluster, err := RackCluster(cfg.RackConfig)
	if err != nil {
		return FaultResult{}, err
	}
	mach := cluster.Machine()
	schedule, err := BuildFaultSchedule(mach.Topology(), cfg.effectiveEvents())
	if err != nil {
		return FaultResult{}, err
	}
	opts := tuned(a, cfg.EpochIters, cfg.Hysteresis, cfg.WindowDecay)
	opts.Candidate, opts.Faults = placement.Hierarchical{}, schedule
	run, err := runStencil(mach, cfg.Seed, rackStencil(cfg.RackConfig).build, nil, opts)
	if err != nil {
		return FaultResult{}, err
	}
	return FaultResult{Seconds: run.seconds, Stats: run.stats}, nil
}

// AblationFault (A14) compares the fault-handling arms on the rack-skewed
// stencil with a mid-run correlated failure.
func AblationFault(cfg FaultConfig) ([]AblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return sweep("fault", faultArms,
		func(a *placement.AdaptiveOptions) (FaultResult, error) { return runFault(a, cfg) },
		func(_ arm[*placement.AdaptiveOptions], res FaultResult) AblationRow {
			return AblationRow{Seconds: res.Seconds, Detail: faultDetail(res.Stats)}
		})
}

// FaultConfigFrom derives the fault configuration from the common ablation
// Config: the A10 shape rule (RackConfigFrom) with a floor of 4 nodes per
// rack — below that the kill leaves too few survivors for the refuge choice
// to matter, see FaultConfig.
func FaultConfigFrom(cfg Config) FaultConfig {
	rc := RackConfigFrom(cfg)
	rc.NodesPerRack = max(rc.NodesPerRack, 4)
	return FaultConfig{RackConfig: rc}
}
