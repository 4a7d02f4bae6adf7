package numasim

import (
	"fmt"
	"sync/atomic"
)

// Placement selects the memory-placement policy of a Region.
type Placement int

const (
	// FirstTouch places the region on the NUMA node of the first Proc that
	// accesses (touches) it — the default policy of Linux and the one both
	// the OpenMP baseline and ORWL's NoBind mode experience.
	FirstTouch Placement = iota
	// Explicit places the region on a node chosen at allocation time, the
	// behaviour of ORWL locations allocated next to their bound task.
	Explicit
	// Interleaved spreads pages round-robin across all nodes.
	Interleaved
)

// String names the placement policy.
func (p Placement) String() string {
	switch p {
	case FirstTouch:
		return "first-touch"
	case Explicit:
		return "explicit"
	case Interleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Region is a simulated memory allocation with a home NUMA node. Regions
// are created through the Machine allocators. Any number of Procs may access
// one concurrently: the home is an atomic, resolved once by whichever first
// touch wins. MoveTo also changes the policy, so it belongs to callers that
// have the region to themselves — before a run, or inside an epoch barrier.
type Region struct {
	m      *Machine
	name   string
	bytes  int64
	policy Placement

	home atomic.Int32 // node index; -1 until first touch for FirstTouch regions
}

// newRegion allocates a region with the given policy and initial home.
func newRegion(m *Machine, name string, bytes int64, policy Placement, home int) *Region {
	r := &Region{m: m, name: name, bytes: bytes, policy: policy}
	r.home.Store(int32(home))
	return r
}

// AllocOn allocates a region with an explicit home node.
func (m *Machine) AllocOn(name string, bytes int64, node int) (*Region, error) {
	if node < 0 || node >= m.topo.NumNUMANodes() {
		return nil, fmt.Errorf("numasim: node %d out of range [0,%d)", node, m.topo.NumNUMANodes())
	}
	if bytes < 0 {
		return nil, fmt.Errorf("numasim: negative region size")
	}
	return newRegion(m, name, bytes, Explicit, node), nil
}

// AllocFirstTouch allocates a region whose home is decided by the first
// Proc that accesses it.
func (m *Machine) AllocFirstTouch(name string, bytes int64) *Region {
	return newRegion(m, name, bytes, FirstTouch, -1)
}

// AllocInterleaved allocates a region whose pages are spread across all
// NUMA nodes.
func (m *Machine) AllocInterleaved(name string, bytes int64) *Region {
	return newRegion(m, name, bytes, Interleaved, -1)
}

// Name returns the region's diagnostic name.
func (r *Region) Name() string { return r.name }

// Bytes returns the allocation size used for footprint accounting.
func (r *Region) Bytes() int64 { return r.bytes }

// Policy returns the placement policy of the region.
func (r *Region) Policy() Placement { return r.policy }

// Home returns the region's NUMA node, or -1 when an untouched first-touch
// region has no home yet. Interleaved regions report -1 (no single home).
func (r *Region) Home() int { return int(r.home.Load()) }

// touch resolves the home node on first access by the given PU's node and
// returns the effective node for cost purposes (-1 for interleaved).
func (r *Region) touch(pu int) int {
	if r.policy == Interleaved {
		return -1
	}
	if home := r.home.Load(); home >= 0 {
		return int(home)
	}
	// Untouched region read by an unscheduled Proc: the OS will have placed
	// it on node 0 (the classic serial-init pathology).
	node := int32(0)
	if pu >= 0 {
		node = int32(r.m.nodeOf[pu])
	}
	if r.home.CompareAndSwap(-1, node) {
		return int(node)
	}
	return int(r.home.Load()) // another first touch won
}

// MoveTo rehomes the region to an explicit node (simulating migrate_pages /
// an explicit re-allocation). The data movement cost is charged to the
// calling Proc, not here.
func (r *Region) MoveTo(node int) error {
	if node < 0 || node >= r.m.topo.NumNUMANodes() {
		return fmt.Errorf("numasim: node %d out of range", node)
	}
	r.home.Store(int32(node))
	r.policy = Explicit
	return nil
}
