package topology

import "fmt"

// Defaults describes the physical constants used to attribute a synthetic
// topology. The zero value is not useful; start from DefaultAttrs().
type Defaults struct {
	// ClockHz is the core frequency.
	ClockHz float64
	// L1Size, L2Size, L3Size are per-cache capacities in bytes.
	L1Size, L2Size, L3Size int64
	// L1Latency, L2Latency, L3Latency are cache access latencies in cycles.
	L1Latency, L2Latency, L3Latency float64
	// MemLatencyCycles is the local DRAM access latency in cycles.
	MemLatencyCycles float64
	// MemBandwidth is the per-NUMA-node memory bandwidth in bytes/second.
	MemBandwidth float64
	// LinkBandwidth is the per-hop interconnect bandwidth in bytes/second.
	LinkBandwidth float64
	// NetLatencyCycles is the per-link latency of the cluster fabric in
	// cycles; a message between two cluster nodes traverses two links (node
	// to switch, switch to node).
	NetLatencyCycles float64
	// NetBandwidth is the per-link bandwidth of the cluster fabric in
	// bytes/second.
	NetBandwidth float64
	// UplinkLatencyCycles is the per-link latency of one rack uplink (top-of-
	// rack switch to spine) in cycles; a message between nodes in different
	// racks traverses two NIC links plus two uplinks.
	UplinkLatencyCycles float64
	// UplinkBandwidth is the per-uplink bandwidth in bytes/second. The uplink
	// is shared by every stream leaving the rack, so it is the scarce resource
	// of a multi-switch fabric.
	UplinkBandwidth float64
	// PodUplinkLatencyCycles is the per-link latency of one pod uplink (pod
	// switch to core switch) in cycles; a message between nodes in different
	// pods traverses two NIC links, two rack uplinks and two pod uplinks.
	PodUplinkLatencyCycles float64
	// PodUplinkBandwidth is the per-pod-uplink bandwidth in bytes/second,
	// shared by every stream leaving the pod.
	PodUplinkBandwidth float64
}

// DefaultAttrs returns physical constants plausible for the 2016-era large
// SMP used in the paper (e.g. a Bull BCS / SGI UV class machine): 2.27 GHz
// cores, 32 KiB L1, 256 KiB L2, a 24 MiB L3 shared per socket, ~110 ns local
// memory latency and ~7 GB/s of sustainable per-node memory bandwidth.
func DefaultAttrs() Defaults {
	return Defaults{
		ClockHz:          2.27e9,
		L1Size:           32 << 10,
		L2Size:           256 << 10,
		L3Size:           24 << 20,
		L1Latency:        4,
		L2Latency:        12,
		L3Latency:        40,
		MemLatencyCycles: 250,
		MemBandwidth:     7e9,
		LinkBandwidth:    6e9,
		// 2016-era 10-Gigabit-Ethernet-class cluster fabric: ~1.8 µs per
		// link (≈ 4000 cycles at 2.27 GHz) and 1.25 GB/s per link — an
		// order of magnitude above remote-memory latency and below
		// local-memory bandwidth, so crossing a node boundary costs
		// decisively more than any intra-machine path.
		NetLatencyCycles: 4000,
		NetBandwidth:     1.25e9,
		// Rack uplinks (ToR to spine): a trunked 2×10GbE-class link with the
		// extra store-and-forward latency of the spine tier. Twice the NIC
		// bandwidth, but shared by a whole rack's worth of crossing streams —
		// crossing a rack boundary costs decisively more than staying under
		// one switch.
		UplinkLatencyCycles: 8000,
		UplinkBandwidth:     2.5e9,
		// Pod uplinks (pod switch to core switch): another store-and-forward
		// tier, trunked no wider than the rack uplinks but shared by every
		// stream leaving a whole pod — the classic oversubscribed fat-tree
		// top, where crossing a pod boundary is the costliest path of all.
		PodUplinkLatencyCycles: 16000,
		PodUplinkBandwidth:     2.5e9,
	}
}

// specLevel is one parsed "kind:count" (or "kind:c0,c1,...") token. counts
// has one entry per parent object when the level is uneven, or a single
// entry applied to every parent.
type specLevel struct {
	kind   Kind
	counts []int
}

// total returns the number of objects this level creates under nParents
// parents, or an error when an uneven count list does not match or the level
// alone exceeds maxSpecObjects.
func (l specLevel) total(nParents int) (int, error) {
	if len(l.counts) == 1 {
		if nParents > maxSpecObjects/l.counts[0] { // the product may not fit a 32-bit int
			return 0, errTooLarge
		}
		return nParents * l.counts[0], nil
	}
	if len(l.counts) != nParents {
		return 0, fmt.Errorf("topology: level %v lists %d counts for %d parents", l.kind, len(l.counts), nParents)
	}
	n := 0
	for _, c := range l.counts {
		if n += c; n > maxSpecObjects {
			return 0, errTooLarge
		}
	}
	return n, nil
}

var kindTokens = map[string]Kind{
	"machine": Machine,
	"pod":     Pod,
	"rack":    Rack,
	"cluster": Cluster,
	"group":   Group,
	"pack":    Package,
	"socket":  Package,
	"numa":    NUMANode,
	"node":    NUMANode,
	"l3":      L3,
	"l2":      L2,
	"l1":      L1,
	"core":    Core,
	"pu":      PU,
}

// FromSpec builds a topology from a synthetic specification string with
// default physical attributes. See FromSpecAttrs for the grammar.
func FromSpec(spec string) (*Topology, error) {
	return FromSpecAttrs(spec, DefaultAttrs())
}

// FromSpecAttrs builds a topology from a synthetic specification string, in
// the style of hwloc's synthetic backend: ParsePlatform parses it, grow
// attaches the objects, build indexes the tree. The spec is a
// whitespace-separated list of "kind:count" tokens ordered from just below
// the machine root down towards the leaves:
//
//	pack:24 core:8 pu:1        the paper's 192-core machine
//	pack:4 numa:2 l3:1 core:6 pu:2   a deeper, hyperthreaded machine
//
// A count may also be a comma-separated list with one entry per object at
// the level above, describing an uneven machine (a partially populated or
// heterogeneous SMP):
//
//	pack:3 core:2,1,1 pu:1     three sockets with 2, 1 and 1 cores
//
// Recognized kinds: group, pack (or socket), numa (or node), l3, l2, l1,
// core, pu. Kinds must appear in root-to-leaf order and at most once. Two
// normalizations are applied so that every topology is well formed:
//
//   - if no "numa" level is given, a NUMANode level with count 1 is inserted
//     below the packages (each socket is its own memory node, which is how
//     the paper's machine is organized), or below the machine when there are
//     no packages either;
//   - if no "pu" level is given, a PU level with count 1 is appended (no
//     hyperthreading).
//
// A "core" level is likewise required and inserted (count 1) above the PUs
// when missing. The machine root itself must not appear in the spec.
//
// A platform of several machines leads with its fabric tiers, outside in —
// an optional pod tier, an optional rack tier, the node (cluster) tier —
// followed by the machine every node carries:
//
//	cluster:4 pack:2 core:8            four 16-core machines on one switch
//	node:4 pack:2 core:8               the same
//	rack:2 node:4 pack:2 core:8        two racks of four machines
//	rack:2 node:2,3 pack:2 core:8      uneven racks
//	pod:2 rack:2 node:2 pack:2 core:8  three switch tiers
//
// The spelling "node" normally denotes a NUMA node; it is the cluster tier
// as the first token when a group or package level follows (a NUMA level
// above sockets would be ill-ordered, so the reading is unambiguous),
// directly after a rack tier, and when it carries braces (below). Racks
// carry the per-uplink (top-of-rack switch to spine) latency and bandwidth
// in their attributes, pods the pod uplink's, cluster nodes the per-NIC
// link's. A rack tier requires a node tier below it — "rack:2 core:8" is
// rejected, because a rack of cores is not a fabric — and a pod tier a rack
// tier. A node tier without machine tokens gives every node one core.
//
// A leading torus or dragonfly token stands in place of the pod/rack/node
// tiers as a non-tree fabric:
//
//	torus:4x4 pack:1 core:4        a 16-node 2-D torus
//	torus:2x2x4 pack:1 core:4      a 16-node 3-D torus
//	dragonfly:2,4,2 pack:1 core:4  2 groups x 4 routers x 2 nodes
//
// The shape's node count becomes the cluster level; transfers between the
// nodes are priced along routed edge paths of the FabricGraph (see
// fabricgraph.go). The shape token must lead the spec and cannot be
// combined with pod or rack tiers.
//
// Nodes that differ are listed on the node tier (or the shape token) in
// braces, one machine spec per member, "|" separated:
//
//	rack:2 node:{pack:2 core:8 | pack:1 core:4}   one machine spec per node
//	rack:2 node:2{pack:2 core:8 | pack:1 core:4}  counts + cycling members
//
// Without counts the node count is the number of members listed, spread
// evenly over the racks; with counts the member list cycles over the nodes
// in left-to-right order. All members must share one level-kind sequence
// after normalization (they may differ freely in arity — an 8-core and a
// 4-core node mix, a node with an l3 level and one without does not),
// because the tree keeps levels kind-homogeneous.
//
// Below the node tier a comma list holds one count per parent object of the
// member machine it is written in ("cluster:2 pack:2 core:4,2": every node
// has a 4-core and a 2-core socket). When the nodes share one member and
// that reading does not fit it, the lists are read platform-wide, one count
// per parent object across all nodes in left-to-right order — the form
// Spec() renders, so "rack:2 cluster:1 pack:2,1 numa:1 core:8,8,4 pu:1"
// parses back into its two different nodes. With more than one node the two
// readings never both fit.
//
// A spec may describe at most maxSpecObjects objects.
func FromSpecAttrs(spec string, def Defaults) (*Topology, error) {
	p, err := ParsePlatform(spec)
	if err != nil {
		return nil, err
	}
	root := &Object{Kind: Machine, Attr: Attr{ClockHz: def.ClockHz}}
	grow(root, p.levels, def)
	t := build(root, p.canonical())
	t.fabric = p.Fabric
	t.fabricDef = def
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// normalize inserts the implicit numa, core and pu levels documented in
// FromSpecAttrs.
func normalize(levels []specLevel) []specLevel {
	has := func(k Kind) bool {
		for _, l := range levels {
			if l.kind == k {
				return true
			}
		}
		return false
	}
	insertAfterKind := func(k Kind, nl specLevel) {
		pos := 0
		for i, l := range levels {
			if l.kind <= k {
				pos = i + 1
			}
		}
		levels = append(levels[:pos], append([]specLevel{nl}, levels[pos:]...)...)
	}
	if !has(NUMANode) {
		if has(Package) {
			insertAfterKind(Package, specLevel{NUMANode, []int{1}})
		} else {
			insertAfterKind(Group, specLevel{NUMANode, []int{1}}) // right below machine/groups
		}
	}
	if !has(Core) {
		insertAfterKind(L1, specLevel{Core, []int{1}})
	}
	if !has(PU) {
		levels = append(levels, specLevel{PU, []int{1}})
	}
	return levels
}

// grow attaches children level by level. A level with a single count gives
// every parent that many children; an uneven level lists one count per
// parent, in left-to-right order. ParsePlatform has checked the lists.
func grow(root *Object, levels []specLevel, def Defaults) {
	parents := []*Object{root}
	for _, l := range levels {
		n, _ := l.total(len(parents))
		next := make([]*Object, 0, n)
		for pi, p := range parents {
			n := l.counts[0]
			if len(l.counts) > 1 {
				n = l.counts[pi]
			}
			for i := 0; i < n; i++ {
				c := &Object{Kind: l.kind, Attr: attrFor(l.kind, def)}
				p.Children = append(p.Children, c)
				next = append(next, c)
			}
		}
		parents = next
	}
}

// attrFor returns the default physical attributes for an object kind.
func attrFor(k Kind, def Defaults) Attr {
	switch k {
	case L1:
		return Attr{CacheSize: def.L1Size, LatencyCycles: def.L1Latency}
	case L2:
		return Attr{CacheSize: def.L2Size, LatencyCycles: def.L2Latency}
	case L3:
		return Attr{CacheSize: def.L3Size, LatencyCycles: def.L3Latency}
	case NUMANode:
		return Attr{
			LatencyCycles:        def.MemLatencyCycles,
			BandwidthBytesPerSec: def.MemBandwidth,
		}
	case Group:
		return Attr{BandwidthBytesPerSec: def.LinkBandwidth}
	case Cluster:
		return Attr{
			LatencyCycles:        def.NetLatencyCycles,
			BandwidthBytesPerSec: def.NetBandwidth,
		}
	case Rack:
		return Attr{
			LatencyCycles:        def.UplinkLatencyCycles,
			BandwidthBytesPerSec: def.UplinkBandwidth,
		}
	case Pod:
		return Attr{
			LatencyCycles:        def.PodUplinkLatencyCycles,
			BandwidthBytesPerSec: def.PodUplinkBandwidth,
		}
	default:
		return Attr{}
	}
}

// PaperMachine returns the evaluation machine of the paper: an SMP with 24
// sockets of 8 cores (192 cores, no hyperthreading), one NUMA node and one
// shared L3 per socket.
func PaperMachine() *Topology {
	t, err := FromSpec("pack:24 l3:1 core:8 pu:1")
	if err != nil {
		panic("topology: PaperMachine spec failed to parse: " + err.Error())
	}
	return t
}
