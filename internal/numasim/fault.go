package numasim

import (
	"fmt"

	"repro/internal/topology"
)

// ApplyFaultEvents installs scheduled platform failures into the machine's
// pricing: a killed cluster node becomes unreachable (accesses touching it
// price to +Inf, see memCostCycles), a degraded fabric edge keeps its latency
// but loses bandwidth (the factor scales the edge's bandwidth before its
// declared streams, Contention.Edges, share it), and a severed edge makes
// every routed path through it unreachable.
//
// Unlike the declared Contention, which Declare publishes as one atomic
// snapshot, the fault fields are plain fields: they may only be written
// while every Proc is quiesced — before the runtime starts,
// or inside an epoch hook, where the barrier orders the write before any
// task's subsequent charge. The adaptive engine's fault handling is the
// intended caller. Until the first call, pricing is bit-identical to a
// machine without the fault model.
func (m *Machine) ApplyFaultEvents(events []topology.FaultEvent) error {
	if len(events) == 0 {
		return nil
	}
	if m.fabricGraph == nil {
		return fmt.Errorf("numasim: fault events on a single-machine topology (no fabric)")
	}
	numC := len(m.topo.ClusterNodes())
	for _, ev := range events {
		switch ev.Kind {
		case topology.FaultKillNode:
			if ev.Node < 0 || ev.Node >= numC {
				return fmt.Errorf("numasim: fault %v: unknown cluster node (have %d)", ev, numC)
			}
			if m.deadCNode == nil {
				m.deadCNode = make([]bool, numC)
			}
			if m.deadCNode[ev.Node] {
				return fmt.Errorf("numasim: fault %v: node already dead", ev)
			}
			alive := 0
			for _, d := range m.deadCNode {
				if !d {
					alive++
				}
			}
			if alive <= 1 {
				return fmt.Errorf("numasim: fault %v: cannot kill the last surviving cluster node", ev)
			}
			m.deadCNode[ev.Node] = true
		case topology.FaultDegradeEdge:
			if err := m.checkFaultEdge(ev); err != nil {
				return err
			}
			if !(ev.Factor > 0 && ev.Factor < 1) {
				return fmt.Errorf("numasim: fault %v: degrade factor outside (0,1)", ev)
			}
			m.ensureEdgeFaultFactors()
			m.edgeFaultFactor[ev.Edge] *= ev.Factor
		case topology.FaultSeverEdge:
			if err := m.checkFaultEdge(ev); err != nil {
				return err
			}
			m.ensureEdgeFaultFactors()
			m.edgeFaultFactor[ev.Edge] = 0
		default:
			return fmt.Errorf("numasim: fault %v: unknown kind", ev)
		}
	}
	return nil
}

func (m *Machine) checkFaultEdge(ev topology.FaultEvent) error {
	if ev.Edge < 0 || ev.Edge >= m.fabricGraph.NumEdges() {
		return fmt.Errorf("numasim: fault %v: unknown fabric edge (have %d)", ev, m.fabricGraph.NumEdges())
	}
	if m.edgeFaultFactor != nil && m.edgeFaultFactor[ev.Edge] == 0 {
		return fmt.Errorf("numasim: fault %v: edge already severed", ev)
	}
	return nil
}

func (m *Machine) ensureEdgeFaultFactors() {
	if m.edgeFaultFactor == nil {
		m.edgeFaultFactor = make([]float64, m.fabricGraph.NumEdges())
		for i := range m.edgeFaultFactor {
			m.edgeFaultFactor[i] = 1
		}
	}
}

// ClusterNodeDead reports whether a cluster node was killed by a fault
// event. Always false before the first ApplyFaultEvents.
func (m *Machine) ClusterNodeDead(c int) bool {
	return m.deadCNode != nil && c >= 0 && c < len(m.deadCNode) && m.deadCNode[c]
}

// AnyDeadClusterNode reports whether any kill event has been applied — the
// cheap gate the adaptive engine checks before scanning placements for
// evacuees.
func (m *Machine) AnyDeadClusterNode() bool {
	for _, d := range m.deadCNode {
		if d {
			return true
		}
	}
	return false
}

// EdgeFaultFactor returns the remaining bandwidth fraction of a fabric
// edge: 1 healthy or before any edge fault, (0,1) degraded, 0 severed.
func (m *Machine) EdgeFaultFactor(e int) float64 {
	if m.edgeFaultFactor == nil {
		return 1
	}
	return m.edgeFaultFactor[e]
}

// CheckpointNode returns the NUMA node that stands in for lost memory: the
// first NUMA node whose cluster node is still alive. Dead nodes' regions and
// working sets re-materialize from here (the model's stand-in for a
// checkpoint/replica store on surviving storage). Node 0 on a healthy
// machine — the same serial-init default the unbound-end pricing uses.
func (m *Machine) CheckpointNode() int {
	if m.deadCNode == nil {
		return 0
	}
	for node, c := range m.cnodeOfNUMA {
		if !m.deadCNode[c] {
			return node
		}
	}
	return 0
}
