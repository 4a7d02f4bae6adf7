package topology

import "fmt"

// FaultKind classifies one scheduled platform failure.
type FaultKind int

const (
	// FaultKillNode removes a cluster node: its PUs and memory become
	// unreachable and every task placed there must be evacuated.
	FaultKillNode FaultKind = iota
	// FaultDegradeEdge multiplies one fabric edge's bandwidth by a factor in
	// (0,1) — a flapping link, a failed lane of a trunked uplink. Latency is
	// untouched: the wire is as long as before, it just carries less.
	FaultDegradeEdge
	// FaultSeverEdge cuts one fabric edge entirely: every routed path through
	// it becomes unusable.
	FaultSeverEdge
)

// String names the kind for diagnostics.
func (k FaultKind) String() string {
	switch k {
	case FaultKillNode:
		return "kill-node"
	case FaultDegradeEdge:
		return "degrade-edge"
	case FaultSeverEdge:
		return "sever-edge"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultEvent is one scheduled failure: at the start of epoch Epoch (1-based,
// matching orwl.Epoch.Index) the named cluster node dies, or the named
// fabric-graph edge (an index into FabricGraph().Edges()) is degraded by
// Factor or severed.
type FaultEvent struct {
	Epoch int
	Kind  FaultKind
	// Node is the cluster-node index for FaultKillNode.
	Node int
	// Edge is the fabric-graph edge id for FaultDegradeEdge/FaultSeverEdge.
	Edge int
	// Factor is the bandwidth multiplier of FaultDegradeEdge, in (0,1)
	// exclusive; successive degrades of one edge compound multiplicatively.
	Factor float64
}

// String renders the event for diagnostics and error messages.
func (e FaultEvent) String() string {
	switch e.Kind {
	case FaultKillNode:
		return fmt.Sprintf("epoch %d: kill node %d", e.Epoch, e.Node)
	case FaultDegradeEdge:
		return fmt.Sprintf("epoch %d: degrade edge %d by %g", e.Epoch, e.Edge, e.Factor)
	case FaultSeverEdge:
		return fmt.Sprintf("epoch %d: sever edge %d", e.Epoch, e.Edge)
	default:
		return fmt.Sprintf("epoch %d: %v", e.Epoch, e.Kind)
	}
}

// FaultSchedule is an ordered set of failures injected into a run. The
// adaptive engine queries it at every epoch boundary and installs the
// matching events into the machine's pricing; a nil or empty schedule is a
// no-op on every path.
type FaultSchedule struct {
	Events []FaultEvent
}

// Validate checks the schedule against a platform topology: every event must
// address an existing cluster node or fabric edge at an epoch >= 1, degrade
// factors must lie in (0,1), no node may die twice, no edge may take two
// events at one epoch or any event after being severed, and at least one
// cluster node must survive. Events may be listed in any order; validation
// replays them sorted by epoch (ties in listed order).
func (s *FaultSchedule) Validate(t *Topology) error {
	if s == nil || len(s.Events) == 0 {
		return nil
	}
	numC := t.NumClusterNodes()
	g := t.FabricGraph()
	if numC < 2 || g == nil {
		return fmt.Errorf("topology: fault schedule needs a multi-node platform with a fabric (have %d cluster nodes)", numC)
	}
	dead := make([]bool, numC)
	severed := make([]bool, g.NumEdges())
	touched := make(map[[2]int]bool) // (edge, epoch) pairs already faulted
	deaths := 0
	for _, ev := range s.chronological() {
		if ev.Epoch < 1 {
			return fmt.Errorf("topology: fault %v: epochs are 1-based", ev)
		}
		switch ev.Kind {
		case FaultKillNode:
			if ev.Node < 0 || ev.Node >= numC {
				return fmt.Errorf("topology: fault %v: unknown cluster node (have %d)", ev, numC)
			}
			if dead[ev.Node] {
				return fmt.Errorf("topology: fault %v: node already dead", ev)
			}
			dead[ev.Node] = true
			if deaths++; deaths == numC {
				return fmt.Errorf("topology: fault schedule kills every cluster node")
			}
		case FaultDegradeEdge, FaultSeverEdge:
			if ev.Edge < 0 || ev.Edge >= g.NumEdges() {
				return fmt.Errorf("topology: fault %v: unknown fabric edge (have %d)", ev, g.NumEdges())
			}
			if severed[ev.Edge] {
				return fmt.Errorf("topology: fault %v: edge already severed", ev)
			}
			if key := [2]int{ev.Edge, ev.Epoch}; touched[key] {
				return fmt.Errorf("topology: fault %v: conflicting events on one edge at one epoch", ev)
			} else {
				touched[key] = true
			}
			if ev.Kind == FaultDegradeEdge {
				if !(ev.Factor > 0 && ev.Factor < 1) {
					return fmt.Errorf("topology: fault %v: degrade factor outside (0,1)", ev)
				}
			} else {
				severed[ev.Edge] = true
			}
		default:
			return fmt.Errorf("topology: fault %v: unknown kind", ev)
		}
	}
	return nil
}

// EventsAt returns the events scheduled for one epoch, in listed order.
func (s *FaultSchedule) EventsAt(epoch int) []FaultEvent {
	if s == nil {
		return nil
	}
	var out []FaultEvent
	for _, ev := range s.Events {
		if ev.Epoch == epoch {
			out = append(out, ev)
		}
	}
	return out
}

// chronological returns the events sorted by epoch, stable in listed order —
// an insertion sort, since schedules hold a handful of events.
func (s *FaultSchedule) chronological() []FaultEvent {
	out := append([]FaultEvent(nil), s.Events...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Epoch < out[j-1].Epoch; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
