package sched

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/topology"
)

// Capacity is the scheduler's free-capacity index: which core slots of every
// cluster node are free, with per-domain free counts for each fabric tier
// kept incrementally consistent as jobs bind and release slots. All queries
// are O(1) or O(slots); Bind/Release are O(slots·log cores).
type Capacity struct {
	// free[n] lists the free core level-indices of cluster node n,
	// ascending.
	free [][]int
	// nodeOf maps a core level index to its cluster node index.
	nodeOf []int
	// domains caches the domain list per tier; domainOfNode[tier][n] is
	// the index of node n's domain at that tier.
	domains      map[topology.Kind][]topology.FabricDomain
	domainOfNode map[topology.Kind][]int
	// domainFree[tier][d] counts the free slots inside domain d of tier.
	domainFree map[topology.Kind][]int
	// tierOfNode and tierFree alias the two maps' slices in DomainTiers
	// order, so adjust walks slices instead of ranging over a map.
	tierOfNode, tierFree [][]int
	// mark flags the cores checkSlots has seen in the current call; it is
	// all false between calls.
	mark  []bool
	total int
}

// NewCapacity builds the index for an entirely free platform.
func NewCapacity(topo *topology.Topology) (*Capacity, error) {
	if topo == nil {
		return nil, fmt.Errorf("sched: capacity index requires a topology")
	}
	nodes := topo.NumClusterNodes()
	c := &Capacity{
		free:         make([][]int, nodes),
		nodeOf:       make([]int, topo.NumCores()),
		mark:         make([]bool, topo.NumCores()),
		domains:      map[topology.Kind][]topology.FabricDomain{},
		domainOfNode: map[topology.Kind][]int{},
		domainFree:   map[topology.Kind][]int{},
	}
	for n := range c.free {
		lo, hi := topo.NodeCores(n)
		for ci := lo; ci < hi; ci++ {
			c.nodeOf[ci] = n
			c.free[n] = append(c.free[n], ci)
		}
	}
	c.total = topo.NumCores()
	for _, tier := range topo.DomainTiers() {
		doms := topo.FabricDomains(tier)
		c.domains[tier] = doms
		ofNode := make([]int, nodes)
		freeCount := make([]int, len(doms))
		for d, dom := range doms {
			for _, n := range dom.Nodes {
				ofNode[n] = d
				freeCount[d] += len(c.free[n])
			}
		}
		c.domainOfNode[tier] = ofNode
		c.domainFree[tier] = freeCount
		c.tierOfNode = append(c.tierOfNode, ofNode)
		c.tierFree = append(c.tierFree, freeCount)
	}
	return c, nil
}

// Domains returns the domains of one tier (the topology's enumeration).
func (c *Capacity) Domains(tier topology.Kind) []topology.FabricDomain {
	return c.domains[tier]
}

// DomainFree returns the free slot count of domain d at the given tier.
func (c *Capacity) DomainFree(tier topology.Kind, d int) int {
	return c.domainFree[tier][d]
}

// FreeTotal returns the number of free slots on the whole platform.
func (c *Capacity) FreeTotal() int { return c.total }

// NodeFree returns the number of free slots on cluster node n.
func (c *Capacity) NodeFree(n int) int { return len(c.free[n]) }

// MaxNodeFree returns the largest per-node free count, the "how packed are
// we" numerator of the fragmentation metric.
func (c *Capacity) MaxNodeFree() int {
	max := 0
	for _, slots := range c.free {
		if len(slots) > max {
			max = len(slots)
		}
	}
	return max
}

// NodeOf maps a core level index to its cluster node index.
func (c *Capacity) NodeOf(core int) int { return c.nodeOf[core] }

// DomainOfNode returns the index of node n's domain at the given tier.
func (c *Capacity) DomainOfNode(tier topology.Kind, n int) int {
	return c.domainOfNode[tier][n]
}

// nodeFreeCounts snapshots the per-node free-slot counts — the seed of the
// hypothetical capacity walk that computes a blocked head's earliest
// feasible start (phase2.go:earliestStart).
func (c *Capacity) nodeFreeCounts() []int {
	counts := make([]int, len(c.free))
	for n, slots := range c.free {
		counts[n] = len(slots)
	}
	return counts
}

// FreeSlots returns a full-length free-slot view (one entry per cluster
// node) with copies of the free lists of exactly the requested nodes — the
// shape placement.AssignFreeSlots consumes.
func (c *Capacity) FreeSlots(nodes []int) [][]int {
	out := make([][]int, len(c.free))
	for _, n := range nodes {
		out[n] = append([]int(nil), c.free[n]...)
	}
	return out
}

// freeView is FreeSlots without the copies, built in view's memory: the
// entries of the requested nodes are the index's own lists, capped so that
// an append copies them. It is valid until the next Bind or Release, and no
// one may write through it; placement.SlotMapper.Assign only reads its
// argument and keeps none of it.
func (c *Capacity) freeView(view [][]int, nodes []int) [][]int {
	view = slices.Grow(view[:0], len(c.free))[:len(c.free)]
	clear(view)
	for _, n := range nodes {
		view[n] = slices.Clip(c.free[n])
	}
	return view
}

// Bind removes the given core slots from the free index; every slot must
// currently be free. On error the index is unchanged.
func (c *Capacity) Bind(cores []int) error {
	if err := c.checkSlots(cores, true); err != nil {
		return err
	}
	for _, core := range cores {
		n := c.nodeOf[core]
		slots := c.free[n]
		i := sort.SearchInts(slots, core)
		c.free[n] = append(slots[:i], slots[i+1:]...)
		c.adjust(n, -1)
	}
	return nil
}

// Release returns the given core slots to the free index; every slot must
// currently be bound. On error the index is unchanged.
func (c *Capacity) Release(cores []int) error {
	if err := c.checkSlots(cores, false); err != nil {
		return err
	}
	for _, core := range cores {
		n := c.nodeOf[core]
		// In place: a node's list never outgrows the capacity it was
		// built with.
		slots := c.free[n]
		i := sort.SearchInts(slots, core)
		slots = append(slots, 0)
		copy(slots[i+1:], slots[i:])
		slots[i] = core
		c.free[n] = slots
		c.adjust(n, +1)
	}
	return nil
}

// checkSlots validates a Bind/Release argument before any mutation:
// in-range, duplicate-free, and each slot in the expected state.
func (c *Capacity) checkSlots(cores []int, wantFree bool) error {
	defer func() { // leave mark all false, whichever way the check ends
		for _, core := range cores {
			if core >= 0 && core < len(c.mark) {
				c.mark[core] = false
			}
		}
	}()
	for _, core := range cores {
		if core < 0 || core >= len(c.nodeOf) {
			return fmt.Errorf("sched: core %d out of range [0,%d)", core, len(c.nodeOf))
		}
		if c.mark[core] {
			return fmt.Errorf("sched: core %d listed twice", core)
		}
		c.mark[core] = true
		slots := c.free[c.nodeOf[core]]
		i := sort.SearchInts(slots, core)
		isFree := i < len(slots) && slots[i] == core
		if isFree != wantFree {
			if wantFree {
				return fmt.Errorf("sched: core %d is not free", core)
			}
			return fmt.Errorf("sched: core %d is already free", core)
		}
	}
	return nil
}

// adjust applies a one-slot delta for node n to every aggregate count.
func (c *Capacity) adjust(n, delta int) {
	c.total += delta
	for i, ofNode := range c.tierOfNode {
		c.tierFree[i][ofNode[n]] += delta
	}
}

// Fingerprint renders the exact free-slot state canonically; two indexes
// with identical fingerprints hold identical state. The departure-restores-
// capacity invariant test compares fingerprints around a bind/release pair.
func (c *Capacity) Fingerprint() string {
	var b strings.Builder
	for n, slots := range c.free {
		fmt.Fprintf(&b, "n%d:%v;", n, slots)
	}
	return b.String()
}

// Validate recomputes every aggregate from the per-node free lists and
// reports the first inconsistency — the property tests' ground truth that
// incremental maintenance never drifts.
func (c *Capacity) Validate() error {
	total := 0
	for n, slots := range c.free {
		if !sort.IntsAreSorted(slots) {
			return fmt.Errorf("sched: free list of node %d not sorted: %v", n, slots)
		}
		for _, core := range slots {
			if c.nodeOf[core] != n {
				return fmt.Errorf("sched: core %d filed under node %d, belongs to %d", core, n, c.nodeOf[core])
			}
		}
		total += len(slots)
	}
	if total != c.total {
		return fmt.Errorf("sched: total free %d, recount %d", c.total, total)
	}
	for tier, doms := range c.domains {
		for d, dom := range doms {
			want := 0
			for _, n := range dom.Nodes {
				want += len(c.free[n])
			}
			if got := c.domainFree[tier][d]; got != want {
				return fmt.Errorf("sched: %v free count %d, recount %d", dom, got, want)
			}
		}
	}
	return nil
}
