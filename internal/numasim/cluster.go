package numasim

import (
	"fmt"

	"repro/internal/topology"
)

// Platform is a simulated multi-machine cluster built from a single topology
// spec: a set of (possibly heterogeneous) member machines joined by an
// interconnect fabric of any shape — flat single-switch, racked (ToR +
// spine), pod-tiered (ToR + pod switch + core switch), torus or dragonfly.
// The platform is simulated through a single fused Machine whose topology
// carries the fabric above the per-node trees, so that lock handoffs and
// region pulls crossing a node boundary charge network cycles instead of
// cache or memory cycles (see Machine.TransferCost). Per-node placement works
// on the fused topology too: placement.Hierarchical runs Algorithm 1 on each
// member's subtree of it (treematch.NodeSubtrees).
type Platform struct {
	fused *Machine
}

// NewPlatform builds a platform from a full topology spec with default link
// attributes. The spec names the fabric tiers from the outside in and the
// member machines, which may differ per node:
//
//	cluster:4 pack:2 core:8                          four identical nodes
//	rack:2 node:2,3 pack:2 core:8                    uneven racks
//	rack:2 node:{pack:2 core:8 | pack:1 core:4}      heterogeneous members
//	pod:2 rack:2 node:2{pack:2 core:4 | pack:1 core:4}   three switch tiers
//
// See topology.FromSpecAttrs for the grammar. A spec without fabric tiers
// yields a single-node platform.
func NewPlatform(spec string, cfg Config) (*Platform, error) {
	return NewPlatformAttrs(spec, topology.DefaultAttrs(), cfg)
}

// NewPlatformAttrs is NewPlatform with explicit physical attributes (link
// latencies and bandwidths per fabric tier, cache and memory constants for
// the members).
func NewPlatformAttrs(spec string, def topology.Defaults, cfg Config) (*Platform, error) {
	fusedTopo, err := topology.FromSpecAttrs(spec, def)
	if err != nil {
		return nil, fmt.Errorf("numasim: platform spec: %w", err)
	}
	fused, err := New(fusedTopo, cfg)
	if err != nil {
		return nil, err
	}
	return &Platform{fused: fused}, nil
}

// Machine returns the fused platform-wide simulation machine the runtime
// executes on: PUs, cores and NUMA nodes of all members in left-to-right
// order, with fabric-priced cross-node costs.
func (c *Platform) Machine() *Machine { return c.fused }

// Nodes returns the number of cluster nodes.
func (c *Platform) Nodes() int { return c.fused.topo.NumClusterNodes() }

// NodeCores returns the number of physical cores of the i-th member, the
// capacity weight of capacity-aware partitioning.
func (c *Platform) NodeCores(i int) int {
	lo, hi := c.fused.topo.NodeCores(i)
	return hi - lo
}
