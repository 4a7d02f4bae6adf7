package numasim

import "fmt"

// RoutingPolicy selects how transfers are routed over the fabric graph when
// pricing latency and bandwidth. A tree fabric has one path per node pair, so
// a Valiant detour there only lengthens it; the policy is meant for shaped
// (torus/dragonfly) fabrics.
type RoutingPolicy int

const (
	// RouteMinimal prices every transfer along the fabric's minimal route
	// (the default; identical to all earlier revisions).
	RouteMinimal RoutingPolicy = iota
	// RouteValiant prices transfers along a Valiant route: minimal to a
	// deterministic per-pair intermediate node, then minimal to the
	// destination. On a dragonfly this spreads adversarial traffic — many
	// streams between one group pair — across the global links instead of
	// funnelling them all through the single minimal gateway, trading
	// doubled path latency for a contention-free share of bandwidth.
	RouteValiant
)

// ParseRoutingPolicy maps a CLI name to a RoutingPolicy.
func ParseRoutingPolicy(name string) (RoutingPolicy, error) {
	switch name {
	case "minimal":
		return RouteMinimal, nil
	case "valiant":
		return RouteValiant, nil
	}
	return 0, fmt.Errorf("numasim: unknown routing policy %q (want minimal or valiant)", name)
}

func (p RoutingPolicy) String() string {
	if p == RouteValiant {
		return "valiant"
	}
	return "minimal"
}

// SetRoutingPolicy selects the fabric routing policy used by the pricing
// paths. Valiant routing needs a routed fabric graph (any shaped fabric or
// compiled tree has one; a single-machine topology does not). Like the fault
// state, the policy must only change while the machine is quiesced — before
// Run or inside an epoch hook — because the pricing hot paths read it
// without taking the lock.
func (m *Machine) SetRoutingPolicy(p RoutingPolicy) error {
	if p == RouteValiant && m.fabricGraph == nil {
		return fmt.Errorf("numasim: valiant routing needs a fabric graph (single-machine topology)")
	}
	m.routingPolicy = p
	return nil
}

// RoutingPolicy returns the active fabric routing policy.
func (m *Machine) RoutingPolicy() RoutingPolicy { return m.routingPolicy }

// valiantVia picks the deterministic intermediate node of a pair: a
// splitmix-style hash of the endpoints spread over all cluster nodes, so a
// bundle of same-group streams fans out across intermediate groups while
// identical runs price identically. The route degrades to the minimal one
// when the hash lands on an endpoint.
func (m *Machine) valiantVia(fromC, toC int) int {
	h := uint64(fromC+1)*0x9E3779B97F4A7C15 ^ uint64(toC+1)*0xBF58476D1CE4E5B9
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return int(h % uint64(m.fabricGraph.NumNodes()))
}

// AppendRoutedPath appends to buf the edge path a transfer between two
// cluster nodes is priced along under the active routing policy — the
// fabric graph's minimal path by default, under RouteValiant the minimal
// path to the pair's intermediate node followed by the minimal path on to the
// destination — and returns the extended slice; it allocates nothing while
// buf has room. This is the one place the policy is read: pricing
// (fabricWalk) and the contention derivation (placement.SetFabricContention)
// both walk its result, so declared per-edge streams always match the paths
// pricing walks. Returns buf unchanged without a fabric graph or for a node
// with itself.
func (m *Machine) AppendRoutedPath(buf []int, fromC, toC int) []int {
	g := m.fabricGraph
	if g == nil || fromC == toC {
		return buf
	}
	if m.routingPolicy == RouteValiant {
		if via := m.valiantVia(fromC, toC); via != fromC && via != toC {
			return g.AppendPath(g.AppendPath(buf, fromC, via), via, toC)
		}
	}
	return g.AppendPath(buf, fromC, toC)
}
