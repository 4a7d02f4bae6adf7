// Package topology models the hardware topology of a shared-memory machine
// as a tree of objects, in the spirit of the HWLOC library that the paper
// uses for portable topology discovery.
//
// A topology is a rooted tree whose levels are kind-homogeneous: every
// object at a given depth has the same Kind. Arities usually match too, but
// uneven machines (partially populated sockets) are representable. The leaves
// are processing units (PUs, i.e. hardware threads); above them sit cores,
// caches, NUMA nodes, packages (sockets) and optional groups. Each object may
// carry physical attributes (cache size, latency, memory bandwidth) used by
// the machine simulator to derive access costs.
//
// Because this reproduction cannot discover a real 192-core machine, the
// package builds topologies from synthetic specification strings such as
//
//	pack:24 core:8 pu:1
//
// which describes the paper's evaluation machine: 24 sockets of 8 cores
// without hyperthreading (one NUMA node per socket is inserted implicitly;
// see FromSpec). See spec.go for the grammar.
package topology

import (
	"fmt"
	"sync"
)

// Kind identifies the hardware class of an object in the topology tree.
type Kind int

// The object kinds, ordered from the root of the tree towards the leaves.
// Not every topology contains every kind, but the relative order of the kinds
// that do appear is always the one below.
const (
	// Machine is the root of every topology.
	Machine Kind = iota
	// Pod is one pod (core-switch group) of a three-tier fabric: the racks
	// below a Pod share a pod switch, and traffic between different Pods
	// additionally traverses the pod uplinks (pod switch to core switch).
	// Each Pod object carries the per-pod-uplink latency and bandwidth in its
	// Attr; the root of a topology with Pods stands for the core switch.
	Pod
	// Rack is one rack (switch group) of a multi-switch cluster fabric: the
	// cluster nodes below a Rack share a top-of-rack switch, and traffic
	// between different Racks additionally traverses the rack uplinks to the
	// spine. Each Rack object carries the per-uplink latency and bandwidth in
	// its Attr; the root of a topology with Racks stands for the spine
	// switch (or, with a pod tier above, for the core switch).
	Rack
	// Cluster is a cluster node: one shared-memory machine of a simulated
	// multi-machine cluster. PUs under different Cluster objects do not share
	// memory; data crossing the boundary travels over the interconnect
	// fabric, whose per-link (NIC) latency and bandwidth the Cluster objects
	// carry in their Attr.
	Cluster
	// Group is an intermediate structural level (e.g. a board or blade in a
	// large SMP such as the 24-socket machine of the paper).
	Group
	// Package is a processor socket.
	Package
	// NUMANode is a memory node: every PU below the same NUMANode has uniform
	// (local) access cost to that node's memory.
	NUMANode
	// L3, L2 and L1 are data caches shared by the PUs below them.
	L3
	L2
	L1
	// Core is a physical core; its children are hardware threads.
	Core
	// PU is a processing unit (hardware thread), always a leaf.
	PU
	numKinds
)

var kindNames = [numKinds]string{
	Machine:  "Machine",
	Pod:      "Pod",
	Rack:     "Rack",
	Cluster:  "Cluster",
	Group:    "Group",
	Package:  "Package",
	NUMANode: "NUMANode",
	L3:       "L3",
	L2:       "L2",
	L1:       "L1",
	Core:     "Core",
	PU:       "PU",
}

// String returns the canonical name of the kind ("Package", "PU", ...).
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// IsCache reports whether the kind is one of the cache levels L1, L2, L3.
func (k Kind) IsCache() bool { return k == L1 || k == L2 || k == L3 }

// Attr carries the physical attributes of an object. Zero values mean
// "unspecified"; FromSpec fills in sensible defaults for a 2016-era machine.
type Attr struct {
	// CacheSize is the capacity in bytes of a cache object.
	CacheSize int64
	// LatencyCycles is the access latency of a cache or memory node in CPU
	// cycles.
	LatencyCycles float64
	// BandwidthBytesPerSec is the sustainable bandwidth of a memory node or
	// of the interconnect link represented by this object, in bytes/second.
	BandwidthBytesPerSec float64
	// ClockHz is the core clock frequency; meaningful on the Machine object.
	ClockHz float64
}

// Object is a node of the topology tree.
type Object struct {
	// Kind is the hardware class of the object.
	Kind Kind
	// Depth is the distance from the root (the Machine has depth 0).
	Depth int
	// SiblingIndex is the index of this object among its parent's children.
	SiblingIndex int
	// LevelIndex is the index of this object among all objects of the same
	// depth, in left-to-right order.
	LevelIndex int
	// OSIndex is the operating-system index of a PU (the "cpu number"); -1
	// for non-PU objects.
	OSIndex int
	// Parent is nil for the root.
	Parent *Object
	// Children are ordered left to right.
	Children []*Object
	// Attr holds the physical attributes of the object.
	Attr Attr
}

// String returns a short identifier such as "Package#3".
func (o *Object) String() string {
	return fmt.Sprintf("%s#%d", o.Kind, o.LevelIndex)
}

// Ancestor returns the nearest ancestor of o (possibly o itself) with the
// given kind, or nil if there is none.
func (o *Object) Ancestor(k Kind) *Object {
	for cur := o; cur != nil; cur = cur.Parent {
		if cur.Kind == k {
			return cur
		}
	}
	return nil
}

// Topology is an immutable hardware topology tree.
//
// All exported query methods are safe for concurrent use once the topology
// has been built.
type Topology struct {
	root     *Object
	levels   [][]*Object // levels[d] lists the objects at depth d
	pus      []*Object
	cores    []*Object
	numa     []*Object
	clusters []*Object
	racks    []*Object
	pods     []*Object
	spec     string // the normalized spec the topology was built from

	// fabric is the non-tree fabric shape (torus/dragonfly) the cluster
	// tier was declared with, nil for tree fabrics; fabricDef keeps the
	// attribute defaults the fabric graph's edges are priced with.
	fabric    *FabricShape
	fabricDef Defaults

	// fabricOnce/fabricGraph memoize FabricGraph: the routed-edge view of
	// the fabric, built on first use and shared between callers.
	fabricOnce  sync.Once
	fabricGraph *FabricGraph

	// latOnce/latMatrix memoize LatencyMatrix: the topology tree is
	// immutable after construction, so the O(PUs²) matrix is built at most
	// once and shared between callers.
	latOnce   sync.Once
	latMatrix [][]float64
}

// Root returns the Machine object at the root of the tree.
func (t *Topology) Root() *Object { return t.root }

// Spec returns the normalized specification string describing the topology.
func (t *Topology) Spec() string { return t.spec }

// Depth returns the number of levels in the tree. The root is level 0 and
// the PUs are level Depth()-1.
func (t *Topology) Depth() int { return len(t.levels) }

// Level returns the objects at the given depth, left to right. The returned
// slice must not be modified.
func (t *Topology) Level(depth int) []*Object {
	if depth < 0 || depth >= len(t.levels) {
		return nil
	}
	return t.levels[depth]
}

// DepthOf returns the depth at which objects of kind k live, or -1 if the
// topology has no such level.
func (t *Topology) DepthOf(k Kind) int {
	for d, lv := range t.levels {
		if lv[0].Kind == k {
			return d
		}
	}
	return -1
}

// PUs returns the processing units in left-to-right order. The returned
// slice must not be modified.
func (t *Topology) PUs() []*Object { return t.pus }

// NumPUs returns the number of processing units.
func (t *Topology) NumPUs() int { return len(t.pus) }

// PU returns the i-th processing unit in left-to-right (logical) order.
func (t *Topology) PU(i int) *Object { return t.pus[i] }

// Cores returns the physical cores in left-to-right order.
func (t *Topology) Cores() []*Object { return t.cores }

// NumCores returns the number of physical cores.
func (t *Topology) NumCores() int { return len(t.cores) }

// NUMANodes returns the memory nodes in left-to-right order.
func (t *Topology) NUMANodes() []*Object { return t.numa }

// NumNUMANodes returns the number of memory nodes.
func (t *Topology) NumNUMANodes() int { return len(t.numa) }

// NUMANodeOf returns the memory node that is local to the given object, i.e.
// its nearest NUMANode ancestor. Every PU of a well-formed topology has one.
func (t *Topology) NUMANodeOf(o *Object) *Object { return o.Ancestor(NUMANode) }

// ClusterNodes returns the cluster nodes in left-to-right order, or an empty
// slice on a single-machine topology.
func (t *Topology) ClusterNodes() []*Object { return t.clusters }

// NumClusterNodes returns the number of cluster nodes; a topology without a
// cluster level is one machine and reports 1.
func (t *Topology) NumClusterNodes() int {
	if len(t.clusters) == 0 {
		return 1
	}
	return len(t.clusters)
}

// ClusterNodeOf returns the cluster node the object belongs to, or nil on a
// single-machine topology.
func (t *Topology) ClusterNodeOf(o *Object) *Object { return o.Ancestor(Cluster) }

// NumRacks returns the number of racks; a topology without a rack level is a
// single-switch fabric and reports 0.
func (t *Topology) NumRacks() int { return len(t.racks) }

// RackOf returns the rack the object belongs to, or nil on a single-switch
// fabric.
func (t *Topology) RackOf(o *Object) *Object { return o.Ancestor(Rack) }

// NumPods returns the number of pods; a topology without a pod level reports
// 0 (a two-tier or flatter fabric).
func (t *Topology) NumPods() int { return len(t.pods) }

// FabricLevels returns the per-level link objects of the cluster fabric,
// innermost tier first: the cluster nodes (whose Attr carries the NIC link),
// then the racks (ToR uplinks), then the pods (pod uplinks) — generically,
// every topology level from the cluster tier up to just below the machine
// root. A message between two cluster nodes traverses, at each level where
// their ancestors differ, both endpoint links of that level. Nil on a
// single-machine topology, and nil on a non-tree fabric (torus/dragonfly),
// whose links are per-edge rather than per-level — use FabricGraph there.
func (t *Topology) FabricLevels() [][]*Object {
	if t.fabric != nil {
		return nil
	}
	d := t.DepthOf(Cluster)
	if d < 0 {
		return nil
	}
	var out [][]*Object
	for ; d >= 1; d-- {
		out = append(out, t.levels[d])
	}
	return out
}

// SMTWays returns the number of hyperthreads per core a consumer may rely
// on: the minimum fan-out over all cores (1 on a machine without
// hyperthreading). On uneven-SMT topologies (expressible via specs like
// "core:2 pu:2,1") reading only the first core would misreport capacity and
// let placement pair control threads onto hyperthreads that do not exist;
// the minimum guarantees every core really has that many threads.
func (t *Topology) SMTWays() int {
	ways := 0
	for _, c := range t.cores {
		if ways == 0 || len(c.Children) < ways {
			ways = len(c.Children)
		}
	}
	if ways < 1 {
		ways = 1
	}
	return ways
}

// LCA returns the lowest common ancestor of a and b. Both objects must
// belong to this topology.
func (t *Topology) LCA(a, b *Object) *Object {
	for a.Depth > b.Depth {
		a = a.Parent
	}
	for b.Depth > a.Depth {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// HopDistance returns the number of tree edges on the path between a and b:
// zero when a == b, and otherwise the sum of both objects' distances to
// their lowest common ancestor. This is the abstract distance TreeMatch
// minimizes.
func (t *Topology) HopDistance(a, b *Object) int {
	lca := t.LCA(a, b)
	return (a.Depth - lca.Depth) + (b.Depth - lca.Depth)
}

// SharedCache returns the innermost (largest-depth) cache object shared by
// both PUs, or nil when they share no cache (e.g. different packages).
func (t *Topology) SharedCache(a, b *Object) *Object {
	for cur := t.LCA(a, b); cur != nil; cur = cur.Parent {
		if cur.Kind.IsCache() {
			return cur
		}
	}
	return nil
}

// SameNUMANode reports whether both objects sit under the same memory node.
func (t *Topology) SameNUMANode(a, b *Object) bool {
	na, nb := t.NUMANodeOf(a), t.NUMANodeOf(b)
	return na != nil && na == nb
}

// Validate checks the structural invariants of the topology: kind-
// homogeneous levels, consistent parent/child links, correct depth and
// index numbering, a single Machine root, PU leaves, and at least one NUMA
// node. Arities may differ within a level (an uneven machine); consumers
// that require a balanced tree — TreeMatch — detect and reject that
// themselves. It returns nil when the topology is well formed. Topologies
// built by FromSpec always validate; the method exists so that hand-built
// or mutated trees can be checked in tests.
func (t *Topology) Validate() error {
	if t.root == nil {
		return fmt.Errorf("topology: nil root")
	}
	if t.root.Kind != Machine {
		return fmt.Errorf("topology: root kind is %v, want Machine", t.root.Kind)
	}
	if len(t.levels) == 0 || len(t.levels[0]) != 1 || t.levels[0][0] != t.root {
		return fmt.Errorf("topology: level 0 must contain exactly the root")
	}
	for d, lv := range t.levels {
		if len(lv) == 0 {
			return fmt.Errorf("topology: empty level %d", d)
		}
		kind := lv[0].Kind
		for i, o := range lv {
			if o.Kind != kind {
				return fmt.Errorf("topology: level %d is not homogeneous: %v vs %v", d, o.Kind, kind)
			}
			if o.Kind != PU && len(o.Children) == 0 {
				return fmt.Errorf("topology: %v at level %d has no children", o, d)
			}
			if o.Depth != d {
				return fmt.Errorf("topology: %v stored at level %d has depth %d", o, d, o.Depth)
			}
			if o.LevelIndex != i {
				return fmt.Errorf("topology: %v has level index %d, want %d", o, o.LevelIndex, i)
			}
			for j, c := range o.Children {
				if c.Parent != o {
					return fmt.Errorf("topology: child %v of %v has wrong parent", c, o)
				}
				if c.SiblingIndex != j {
					return fmt.Errorf("topology: child %v of %v has sibling index %d, want %d", c, o, c.SiblingIndex, j)
				}
			}
		}
	}
	last := t.levels[len(t.levels)-1]
	for _, o := range last {
		if o.Kind != PU {
			return fmt.Errorf("topology: leaf level contains %v, want PU", o.Kind)
		}
	}
	if len(t.numa) == 0 {
		return fmt.Errorf("topology: no NUMA node level")
	}
	if len(t.racks) > 0 && len(t.clusters) == 0 {
		return fmt.Errorf("topology: rack level without a cluster-node level below it")
	}
	if len(t.pods) > 0 && len(t.racks) == 0 {
		return fmt.Errorf("topology: pod level without a rack level below it")
	}
	if len(t.pus) != len(last) {
		return fmt.Errorf("topology: PU index lists %d PUs, leaf level has %d", len(t.pus), len(last))
	}
	return nil
}

// build assembles the Topology index structures from a fully linked root.
// The root must already have correct Kind/Children links; build fills in
// Depth, SiblingIndex, LevelIndex, OSIndex and the level tables.
func build(root *Object, spec string) *Topology {
	t := &Topology{root: root, spec: spec}
	level := []*Object{root}
	depth := 0
	for len(level) > 0 {
		var next []*Object
		for i, o := range level {
			o.Depth = depth
			o.LevelIndex = i
			if o.Kind != PU {
				o.OSIndex = -1
			}
			for j, c := range o.Children {
				c.Parent = o
				c.SiblingIndex = j
				next = append(next, c)
			}
		}
		t.levels = append(t.levels, level)
		level = next
		depth++
	}
	leaves := t.levels[len(t.levels)-1]
	t.pus = leaves
	for i, pu := range t.pus {
		pu.OSIndex = i
	}
	for _, lv := range t.levels {
		switch lv[0].Kind {
		case Core:
			t.cores = lv
		case NUMANode:
			t.numa = lv
		case Cluster:
			t.clusters = lv
		case Rack:
			t.racks = lv
		case Pod:
			t.pods = lv
		}
	}
	return t
}
