package topology

import "fmt"

// Fabric domains are the scheduler-facing view of the fabric tiers: a domain
// is one subtree of the fabric hierarchy (a cluster node, a rack, a pod, or
// the whole machine) identified by its tier and level index, carrying the
// level indices of the cluster nodes it spans. The online scheduler
// (internal/sched) enumerates candidate domains per tier, scores them by free
// capacity, and places each job inside exactly one of them; required/preferred
// topology constraints name these tiers.

// FabricDomain is one placement domain: a contiguous subtree of the fabric
// hierarchy at a given tier.
type FabricDomain struct {
	// Tier is the fabric level of the domain: Cluster (one node), Rack,
	// Pod, or Machine (the whole platform).
	Tier Kind
	// Index is the domain's level index within its tier (e.g. rack 2).
	Index int
	// Nodes holds the level indices of the cluster nodes inside the
	// domain, ascending.
	Nodes []int
}

// String renders a compact identity, e.g. "rack[1]{2,3}".
func (d FabricDomain) String() string {
	return fmt.Sprintf("%s[%d]%v", d.Tier, d.Index, d.Nodes)
}

// FabricDomains enumerates the placement domains of one fabric tier in level
// order. Cluster yields one domain per cluster node; Rack and Pod yield one
// domain per rack/pod (nil when the platform has no such tier); Machine
// yields a single domain spanning every cluster node. Platforms without an
// explicit cluster level (a single fused node) expose one Cluster domain and
// one Machine domain, both spanning node 0.
func (t *Topology) FabricDomains(tier Kind) []FabricDomain {
	nodes := t.NumClusterNodes()
	switch tier {
	case Cluster:
		out := make([]FabricDomain, nodes)
		for i := range out {
			out[i] = FabricDomain{Tier: Cluster, Index: i, Nodes: []int{i}}
		}
		return out
	case Rack:
		return t.groupDomains(Rack, t.racks)
	case Pod:
		return t.groupDomains(Pod, t.pods)
	case Machine:
		all := make([]int, nodes)
		for i := range all {
			all[i] = i
		}
		return []FabricDomain{{Tier: Machine, Index: 0, Nodes: all}}
	}
	return nil
}

// groupDomains builds one domain per parent object (rack or pod), collecting
// the cluster nodes below each parent in level order.
func (t *Topology) groupDomains(tier Kind, parents []*Object) []FabricDomain {
	if len(parents) == 0 {
		return nil
	}
	out := make([]FabricDomain, len(parents))
	for i := range out {
		out[i] = FabricDomain{Tier: tier, Index: i}
	}
	for n, node := range t.ClusterNodes() {
		if p := node.Ancestor(tier); p != nil {
			out[p.LevelIndex].Nodes = append(out[p.LevelIndex].Nodes, n)
		}
	}
	return out
}

// DomainTiers lists the fabric tiers this platform actually has, narrowest
// first: always Cluster and Machine, plus Rack and Pod when present. The
// scheduler widens a job's candidate tier along this order during
// preferred-constraint fallback. The list is built once, with the topology,
// and shared by every caller: read-only. It is capped at its length, so an
// append copies it rather than writing into it.
func (t *Topology) DomainTiers() []Kind { return t.tiers }
