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
	// nodeCores[i] is the number of physical cores of the i-th member.
	nodeCores []int
}

// Fabric is the link-parameter override block of the experiment configs: the
// NIC and rack-uplink attributes of a flat or racked interconnect. Zero
// fields take the defaults of topology.DefaultAttrs (a 2016-era
// 10-Gigabit-Ethernet class network with 2×10GbE-class rack uplinks). The
// fabric's shape lives in the platform spec; Defaults turns the overrides
// into the attributes NewPlatformAttrs takes. It cannot describe a pod tier.
type Fabric struct {
	// LinkBandwidthBytesPerSec is the bandwidth of one fabric (NIC) link.
	LinkBandwidthBytesPerSec float64
	// Racks splits the cluster nodes across that many top-of-rack switches
	// (each rack gets an equal share of the nodes; the node count must be
	// divisible). 0 or 1 keeps the flat single-switch fabric. A message
	// between nodes in different racks traverses two NIC links plus two rack
	// uplinks.
	Racks int
	// UplinkLatencyCycles is the latency of one rack uplink (top-of-rack
	// switch to spine) in CPU cycles.
	UplinkLatencyCycles float64
	// UplinkBandwidthBytesPerSec is the bandwidth of one rack uplink, shared
	// by every stream leaving the rack.
	UplinkBandwidthBytesPerSec float64
}

// Defaults merges the fabric's non-zero fields onto topology.DefaultAttrs.
func (f Fabric) Defaults() topology.Defaults {
	def := topology.DefaultAttrs()
	if f.LinkBandwidthBytesPerSec > 0 {
		def.NetBandwidth = f.LinkBandwidthBytesPerSec
	}
	if f.UplinkLatencyCycles > 0 {
		def.UplinkLatencyCycles = f.UplinkLatencyCycles
	}
	if f.UplinkBandwidthBytesPerSec > 0 {
		def.UplinkBandwidth = f.UplinkBandwidthBytesPerSec
	}
	return def
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
	p := &Platform{fused: fused, nodeCores: make([]int, fusedTopo.NumClusterNodes())}
	for _, core := range fusedTopo.Cores() {
		p.nodeCores[fused.ClusterNodeOfPU(core.Children[0].OSIndex)]++
	}
	return p, nil
}

// Machine returns the fused platform-wide simulation machine the runtime
// executes on: PUs, cores and NUMA nodes of all members in left-to-right
// order, with fabric-priced cross-node costs.
func (c *Platform) Machine() *Machine { return c.fused }

// Nodes returns the number of cluster nodes.
func (c *Platform) Nodes() int { return len(c.nodeCores) }

// NodeCores returns the number of physical cores of the i-th member, the
// capacity weight of capacity-aware partitioning.
func (c *Platform) NodeCores(i int) int { return c.nodeCores[i] }
