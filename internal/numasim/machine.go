// Package numasim is a deterministic virtual-time simulator of a NUMA
// shared-memory machine. It substitutes for the 192-core SMP of the paper's
// evaluation, which cannot be reproduced directly in Go: the Go scheduler
// offers no core pinning, and the development container has two cores.
//
// The simulator does not interpret instructions. Instead, execution contexts
// (Proc) carry a virtual clock in CPU cycles, and the workload charges three
// kinds of costs against it:
//
//   - Compute: arithmetic, converted through a flops-per-cycle rate;
//   - memory traffic (MemRead, SweepWorkingSet): bytes moved between the Proc's
//     current PU and the NUMA node holding a Region, priced by latency,
//     distance-degraded bandwidth, and per-node contention;
//   - transfers (TransferCost): the cost of handing data from one PU to
//     another, used by the ORWL runtime when a lock (and the data it
//     protects) moves between tasks — cheap under a shared cache, expensive
//     across sockets.
//
// All costs are pure functions of (topology, placement, workload), so the
// resulting makespan — the maximum of the final clocks — is deterministic
// and independent of the real Go scheduler. Contention is modelled with
// static per-node accessor counts derived from the placement, which keeps
// the engine order-insensitive (see docs/ARCHITECTURE.md, "Determinism").
//
// # Units
//
// Every cost in this package is measured in CPU cycles of the simulated
// clock (ClockHz); CyclesToSeconds converts to simulated seconds.
// Intra-machine charges derive from cache/memory latencies and bandwidths;
// transfers that cross a cluster-node boundary charge network cycles
// instead — the accumulated per-edge latency of the routed path over the
// fabric graph (NIC links, plus rack uplinks across racks and pod uplinks
// across pods; torus or dragonfly hops on a shaped fabric) and streaming at
// the bottleneck edge bandwidth, each edge shared by its declared crossing
// streams (SetEdgeStreams), both read off one walk of the path (fabricWalk).
// The simulator prices whatever placement it is given; it does not optimize.
// The placement side optimizes a structural byte×hop objective whose units
// never appear here — internal/comm's package documentation records where
// the two models are known to diverge.
package numasim

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/topology"
)

// Config holds the microarchitectural constants of the simulated machine.
// Zero fields are replaced by the defaults of DefaultConfig.
type Config struct {
	// FlopsPerCycle is the per-core arithmetic throughput (FLOP/cycle).
	FlopsPerCycle float64
	// CacheBandwidthBytesPerCycle is the bandwidth of transfers served by a
	// shared cache (used for on-chip handoffs).
	CacheBandwidthBytesPerCycle float64
	// SMTComputeInflation is the factor applied to compute costs when two
	// bound Procs share a physical core (>= 1; 1 disables the effect).
	SMTComputeInflation float64
	// MigrationPenaltyCycles is charged every time an unbound Proc is
	// migrated by the simulated OS scheduler (pipeline drain + cache refill
	// latency, on top of the cold-cache effect on subsequent traffic).
	MigrationPenaltyCycles float64
	// MinCacheMissFactor bounds from below the fraction of a working set
	// that must be re-streamed from memory per sweep when the set fits in
	// the last-level cache (some traffic always escapes: cold misses,
	// write-backs, conflict misses).
	MinCacheMissFactor float64
	// InterconnectBandwidth is the aggregate bandwidth, in bytes/second, of
	// the machine's inter-socket fabric. Every remote memory stream shares
	// it (see SetRemoteStreams); 2011-era 24-socket SMPs sustained a few
	// GB/s per socket of cross-traffic, ~55 GB/s machine-wide.
	InterconnectBandwidth float64
}

// DefaultConfig returns constants plausible for the 2016-era machine of the
// paper (2-wide SSE floating point, ~32 B/cycle cache transfers).
func DefaultConfig() Config {
	return Config{
		FlopsPerCycle:               2,
		CacheBandwidthBytesPerCycle: 16,
		SMTComputeInflation:         1.6,
		MigrationPenaltyCycles:      50_000,
		MinCacheMissFactor:          0.15,
		InterconnectBandwidth:       55e9,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.FlopsPerCycle == 0 {
		c.FlopsPerCycle = d.FlopsPerCycle
	}
	if c.CacheBandwidthBytesPerCycle == 0 {
		c.CacheBandwidthBytesPerCycle = d.CacheBandwidthBytesPerCycle
	}
	if c.SMTComputeInflation == 0 {
		c.SMTComputeInflation = d.SMTComputeInflation
	}
	if c.MigrationPenaltyCycles == 0 {
		c.MigrationPenaltyCycles = d.MigrationPenaltyCycles
	}
	if c.MinCacheMissFactor == 0 {
		c.MinCacheMissFactor = d.MinCacheMissFactor
	}
	if c.InterconnectBandwidth == 0 {
		c.InterconnectBandwidth = d.InterconnectBandwidth
	}
	return c
}

// Machine is a simulated NUMA machine built over a hardware topology. It is
// safe for concurrent use and takes no lock: its structure is fixed by New,
// its fault state changes only while every Proc is quiesced (see below), and
// its contention and occupancy state (SetAccessors, SetRemoteStreams,
// SetEdgeStreams, bound Procs) is held in atomics, so a Machine may be priced
// from one goroutine while another declares its contention or binds Procs on
// it — as when two runtimes share one machine.
type Machine struct {
	topo *topology.Topology
	cfg  Config

	clockHz float64
	// nodeOf[pu] is the NUMA node index local to each PU.
	nodeOf []int
	// coreOf[pu] is the core index of each PU.
	coreOf []int
	// cnodeOf[pu] is the cluster-node index of each PU (0 on a single
	// machine).
	cnodeOf []int
	// cnodeOfNUMA[node] is the cluster-node index of each NUMA node.
	cnodeOfNUMA []int
	// fabricGraph is the one fabric representation (topology.FabricGraph):
	// the torus/dragonfly graph on a shaped fabric, the compiled tree
	// otherwise. Nil on single-machine topologies.
	fabricGraph *topology.FabricGraph
	// edgeLat[e] and edgeBW[e] are the fabric graph's edge attributes,
	// flattened once at construction for the pricing walk.
	edgeLat []float64
	edgeBW  []float64
	// rackOf[c] is the rack index of cluster node c; nil on a fabric without
	// a rack tier (flat or shaped), where every node counts as rack 0.
	rackOf []int
	// l3Share[pu] is the slice of the innermost shared cache a PU can count
	// on, in bytes (cache size / PUs sharing it).
	l3Share []int64

	// Fault state, installed by ApplyFaultEvents. These fields are written
	// only while every Proc is quiesced — before Run, or inside an epoch
	// hook, which the barrier's lock edges order before any task's
	// subsequent charge — so the pricing hot paths read them as plain
	// fields. On a healthy machine they stay at their zero values and every
	// fault branch below is skipped, keeping no-fault pricing bit-identical.
	//
	// deadCNode[c] marks cluster node c unreachable (nil until a kill).
	deadCNode []bool
	// edgeFaultFactor[e] is the remaining bandwidth fraction of fabric edge
	// e: 1 healthy, (0,1) degraded, 0 severed. Nil until an edge fault.
	edgeFaultFactor []float64

	// accessors[node] is the static contention degree of each memory node:
	// how many execution streams hit it concurrently in steady state.
	accessors []atomic.Int32
	// remoteStreams is the static number of memory streams crossing the
	// inter-socket fabric in steady state; they share
	// cfg.InterconnectBandwidth.
	remoteStreams atomic.Int32
	// edgeStreams points at the per-edge crossing-stream counts: (*p)[e]
	// streams touch fabric-graph edge e; nil (nothing declared) leaves every
	// edge uncontended. A transfer is capped by the most contended edge on
	// its routed path, so balancing the crossing streams across the fabric
	// recovers bandwidth that funnelling them through one edge loses. Every
	// update publishes a fresh slice (copy-on-write), so one Load is a
	// consistent view of all edges.
	edgeStreams atomic.Pointer[[]int]
	// boundPerPU counts bound Procs per PU. SMT compute inflation applies
	// when at least two PUs of the same core are occupied (hyperthread
	// sharing); several Procs time-multiplexed on one PU do not inflate —
	// they overlap in virtual time, an optimistic but deliberate choice.
	boundPerPU []atomic.Int32
	// pusOfCore lists the PU indices under each core.
	pusOfCore [][]int
}

// New builds a simulated machine over the given topology.
func New(topo *topology.Topology, cfg Config) (*Machine, error) {
	if topo == nil {
		return nil, fmt.Errorf("numasim: nil topology")
	}
	if err := topo.Validate(); err != nil {
		return nil, fmt.Errorf("numasim: invalid topology: %w", err)
	}
	m := &Machine{
		topo:        topo,
		cfg:         cfg.withDefaults(),
		clockHz:     topo.Root().Attr.ClockHz,
		nodeOf:      make([]int, topo.NumPUs()),
		coreOf:      make([]int, topo.NumPUs()),
		cnodeOf:     make([]int, topo.NumPUs()),
		cnodeOfNUMA: make([]int, topo.NumNUMANodes()),
		l3Share:     make([]int64, topo.NumPUs()),
		accessors:   make([]atomic.Int32, topo.NumNUMANodes()),
		boundPerPU:  make([]atomic.Int32, topo.NumPUs()),
		pusOfCore:   make([][]int, topo.NumCores()),
	}
	if m.clockHz == 0 {
		m.clockHz = 2.27e9
	}
	for i, pu := range topo.PUs() {
		m.nodeOf[i] = topo.NUMANodeOf(pu).LevelIndex
		core := pu.Ancestor(topology.Core).LevelIndex
		m.coreOf[i] = core
		m.pusOfCore[core] = append(m.pusOfCore[core], i)
		m.l3Share[i] = cacheShare(topo, pu)
		if c := topo.ClusterNodeOf(pu); c != nil {
			m.cnodeOf[i] = c.LevelIndex
		}
	}
	for n, node := range topo.NUMANodes() {
		if c := topo.ClusterNodeOf(node); c != nil {
			m.cnodeOfNUMA[n] = c.LevelIndex
		}
	}
	if g := topo.FabricGraph(); g != nil {
		m.fabricGraph = g
		m.edgeLat = make([]float64, g.NumEdges())
		m.edgeBW = make([]float64, g.NumEdges())
		for i, e := range g.Edges() {
			m.edgeLat[i] = e.LatencyCycles
			m.edgeBW[i] = e.BandwidthBytesPerSec
		}
		if topo.NumRacks() > 0 {
			m.rackOf = make([]int, len(topo.ClusterNodes()))
			for c, node := range topo.ClusterNodes() {
				m.rackOf[c] = topo.RackOf(node).LevelIndex
			}
		}
	}
	for i := range m.accessors {
		m.accessors[i].Store(1)
	}
	return m, nil
}

// cacheShare returns the bytes of the innermost large shared cache available
// to one PU: the largest cache above it divided by the number of PUs below
// that cache.
func cacheShare(topo *topology.Topology, pu *topology.Object) int64 {
	var best int64
	for cur := pu.Parent; cur != nil; cur = cur.Parent {
		if cur.Kind.IsCache() && cur.Attr.CacheSize > 0 {
			share := cur.Attr.CacheSize / int64(countPUs(cur))
			if share > best {
				best = share
			}
		}
	}
	return best
}

func countPUs(o *topology.Object) int {
	if o.Kind == topology.PU {
		return 1
	}
	n := 0
	for _, c := range o.Children {
		n += countPUs(c)
	}
	return n
}

// Topology returns the underlying hardware topology.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Config returns the effective microarchitectural constants.
func (m *Machine) Config() Config { return m.cfg }

// ClockHz returns the simulated core frequency.
func (m *Machine) ClockHz() float64 { return m.clockHz }

// NodeOfPU returns the NUMA node index local to the given PU.
func (m *Machine) NodeOfPU(pu int) int { return m.nodeOf[pu] }

// SetAccessors declares the static contention degree of a memory node: the
// number of execution streams that hit it concurrently in steady state. The
// node's bandwidth is shared equally among them. Placement code calls this
// once the task layout is known; the default is 1 (no contention).
func (m *Machine) SetAccessors(node, count int) {
	if count < 1 {
		count = 1
	}
	m.accessors[node].Store(int32(count))
}

// Accessors returns the contention degree of a node.
func (m *Machine) Accessors(node int) int { return int(m.accessors[node].Load()) }

// SetRemoteStreams declares how many memory streams cross the inter-socket
// fabric in steady state; each remote access is additionally capped by an
// equal share of Config.InterconnectBandwidth. Placement code derives this
// from the task layout; 0 disables the cap.
func (m *Machine) SetRemoteStreams(n int) {
	if n < 0 {
		n = 0
	}
	m.remoteStreams.Store(int32(n))
}

// RemoteStreams returns the declared fabric contention degree.
func (m *Machine) RemoteStreams() int { return int(m.remoteStreams.Load()) }

// FabricGraph returns the routed fabric graph the machine prices
// cross-node transfers along, or nil on a single machine.
func (m *Machine) FabricGraph() *topology.FabricGraph { return m.fabricGraph }

// SetEdgeStreams declares the per-edge fabric contention over the routed
// fabric graph: counts[e] is the number of crossing streams touching edge e
// of FabricGraph().Edges(). A transfer is capped by the most contended edge
// on its routed path, so a placement that balances the crossing streams
// across the fabric sustains more bandwidth than one that funnels them
// through a single edge, even at equal total cut. Passing nil clears every
// count (no contention). A mis-sized slice panics (a programming error, like
// an out-of-range index): zero-filling missing edges would silently model
// them as uncontended. On tree fabrics FabricGraph().LevelEdges(l) maps the
// links of fabric level l (NICs, rack uplinks, pod uplinks) to edge ids.
func (m *Machine) SetEdgeStreams(counts []int) {
	if m.fabricGraph == nil {
		panic("numasim: SetEdgeStreams on a single-machine topology (no fabric)")
	}
	if counts != nil && len(counts) != m.fabricGraph.NumEdges() {
		panic(fmt.Sprintf("numasim: SetEdgeStreams got %d counts for %d fabric edges",
			len(counts), m.fabricGraph.NumEdges()))
	}
	if counts == nil {
		m.edgeStreams.Store(nil)
		return
	}
	// Copy-on-write: pricing reads the published slice without a lock, so
	// it is never mutated in place.
	own := append([]int(nil), counts...)
	m.edgeStreams.Store(&own)
}

// EdgeStreams returns the declared crossing-stream count of fabric-graph
// edge e (0 while nothing is declared).
func (m *Machine) EdgeStreams(e int) int { return edgeStreamCount(m.loadEdgeStreams(), e) }

// loadEdgeStreams returns the published per-edge stream counts, nil while
// nothing is declared.
func (m *Machine) loadEdgeStreams() []int {
	if p := m.edgeStreams.Load(); p != nil {
		return *p
	}
	return nil
}

// ClusterNodeOfPU returns the cluster-node index of a PU (0 on a single
// machine).
func (m *Machine) ClusterNodeOfPU(pu int) int { return m.cnodeOf[pu] }

// RackOfClusterNode returns the rack index of a cluster node (0 on a fabric
// without a rack tier, where every node hangs off one switch).
func (m *Machine) RackOfClusterNode(c int) int {
	if m.rackOf == nil {
		return 0
	}
	return m.rackOf[c]
}

// SameRack reports whether two cluster nodes share a top-of-rack switch
// (always true on a fabric without a rack tier).
func (m *Machine) SameRack(fromC, toC int) bool {
	return m.RackOfClusterNode(fromC) == m.RackOfClusterNode(toC)
}

// fabricWalk prices the hop between two distinct cluster nodes with one walk
// of their routed path (FabricGraph.AppendPath): the summed edge latency — on a
// tree fabric both endpoint links of every level below the one the nodes
// share — and the bottleneck bandwidth, each edge's fault-degraded bandwidth
// shared among the streams declared to cross it (SetEdgeStreams). A severed
// edge makes the path unreachable: infinite latency, no bandwidth. The
// stream counts are the caller's loadEdgeStreams view.
func (m *Machine) fabricWalk(fromC, toC int, streams []int) (lat, bw float64) {
	var stack [16]int
	bw = math.Inf(1)
	for _, e := range m.fabricGraph.AppendPath(stack[:0], fromC, toC) {
		lat += m.edgeLat[e]
		ebw := m.edgeBW[e]
		if m.edgeFaultFactor != nil {
			if m.edgeFaultFactor[e] == 0 {
				return math.Inf(1), 0
			}
			ebw *= m.edgeFaultFactor[e]
		}
		if b := shareLink(ebw, edgeStreamCount(streams, e)); b < bw {
			bw = b
		}
	}
	return lat, bw
}

// edgeStreamCount returns the contention degree of one fabric edge: its
// declared count, 0 while nothing is declared.
func edgeStreamCount(streams []int, e int) int {
	if streams == nil {
		return 0
	}
	return streams[e]
}

// shareLink divides a link's bandwidth among its crossing streams.
func shareLink(bw float64, streams int) float64 {
	if streams > 1 {
		return bw / float64(streams)
	}
	return bw
}

// accessPrice returns the latency, in cycles, of an access from a PU to a
// memory node and the bytes/second a stream between them can sustain: the
// node's memory latency and its bandwidth divided by its contention degree,
// and for a remote node either the ccNUMA model — the hop penalty on the
// latency, the hop-degraded link bandwidth and a share of the interconnect
// fabric — or, across a cluster-node boundary, network cycles instead: the
// routed path's latency on top of the memory latency, capped by its
// bottleneck edge (fabricWalk).
func (m *Machine) accessPrice(pu, node int) (lat, bw float64) {
	nodeObj := m.topo.NUMANodes()[node]
	lat = nodeObj.Attr.LatencyCycles
	bw = nodeObj.Attr.BandwidthBytesPerSec / float64(m.accessors[node].Load())
	if m.nodeOf[pu] == node {
		return lat, bw
	}
	if m.cnodeOf[pu] != m.cnodeOfNUMA[node] {
		hopLat, link := m.fabricWalk(m.cnodeOf[pu], m.cnodeOfNUMA[node], m.loadEdgeStreams())
		if link < bw {
			bw = link
		}
		return lat + hopLat, bw
	}
	local := m.topo.NUMANodes()[m.nodeOf[pu]]
	lat *= 1 + float64(float64(m.topo.HopDistance(local, nodeObj))/2)
	if link := m.topo.BandwidthBytesPerSec(m.topo.PU(pu), nodeObj); link < bw {
		bw = link
	}
	if remote := m.remoteStreams.Load(); remote > 0 {
		if share := m.cfg.InterconnectBandwidth / float64(remote); share < bw {
			bw = share
		}
	}
	return lat, bw
}

// memCostCycles prices moving the given number of bytes between a PU and a
// memory node: one latency plus the streaming time at effective bandwidth.
func (m *Machine) memCostCycles(pu, node int, bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	if m.deadCNode != nil {
		if m.deadCNode[m.cnodeOf[pu]] {
			// A dead PU executes nothing: the access cannot complete.
			// Infinity, not an error — pricing paths are pure cost
			// functions, and an Inf surfaces loudly in any gain comparison
			// or makespan instead of silently pricing the impossible.
			return math.Inf(1)
		}
		if m.deadCNode[m.cnodeOfNUMA[node]] {
			// The source memory died with its node, but its contents
			// survive in the checkpoint store: the access re-materializes
			// the bytes from there instead — the same rule
			// MigrationCostCycles prices an evacuation by, and the reason a
			// surviving task can still read a dead partner's last release.
			node = m.CheckpointNode()
		}
	}
	// A severed routed path partitions two live nodes; unlike a kill, neither
	// side's memory is lost, so there is no checkpoint to re-materialize from
	// — the access cannot complete, and its latency prices to +Inf.
	lat, bw := m.accessPrice(pu, node)
	if bw <= 0 {
		return lat
	}
	return lat + bytes/(bw/m.clockHz)
}

// TransferCost prices handing bytes produced on fromPU to a consumer on
// toPU, the cost the ORWL runtime charges when a lock moves between tasks:
//
//   - same PU: free (data already in the local cache);
//   - PUs under a shared cache: that cache's latency plus on-chip bandwidth;
//   - same NUMA node: one memory round through the local node;
//   - remote: one memory round priced at the remote distance;
//   - across a cluster-node boundary: the remote round charges network
//     cycles — per-link fabric latency plus streaming at the link bandwidth
//     — instead of cache or ccNUMA memory cycles (see accessPrice).
func (m *Machine) TransferCost(fromPU, toPU int, bytes float64) float64 {
	if fromPU == toPU {
		return 0
	}
	if fromPU < 0 || toPU < 0 { // unbound end: price as a remote-ish access
		node := 0
		if toPU >= 0 {
			node = m.nodeOf[toPU]
		} else if fromPU >= 0 {
			node = m.nodeOf[fromPU]
		}
		pu := toPU
		if pu < 0 {
			pu = 0
		}
		return m.memCostCycles(pu, node, bytes)
	}
	a, b := m.topo.PU(fromPU), m.topo.PU(toPU)
	if c := m.topo.SharedCache(a, b); c != nil {
		return c.Attr.LatencyCycles + bytes/m.cfg.CacheBandwidthBytesPerCycle
	}
	// The producer's data sits in (or near) the producer's node; the
	// consumer streams it from there.
	return m.memCostCycles(toPU, m.nodeOf[fromPU], bytes)
}

// MigrationCostCycles predicts what moving a bound execution stream from
// fromPU to toPU costs: the migration penalty plus one pull of the given
// working-set bytes from the old PU's node to the new PU (the region
// re-homing copy plus the cold-cache refill it stands for). It is a pure
// function of the current contention state — the prediction an adaptive
// placement engine weighs against the expected communication gain before
// committing to a re-placement (the actual charges happen in
// Proc.MigrateTo and Proc.MigrateRegion). A negative fromPU (unbound
// stream) prices the pull as a node-0 fetch, the serial-init default.
func (m *Machine) MigrationCostCycles(fromPU, toPU int, workingSetBytes float64) float64 {
	if fromPU == toPU {
		return 0
	}
	fromNode := 0
	if fromPU >= 0 {
		fromNode = m.nodeOf[fromPU]
	}
	// When the source node died its memory is gone, and memCostCycles
	// re-materializes the working set from the checkpoint node instead —
	// the price an evacuation pays.
	return m.cfg.MigrationPenaltyCycles + m.memCostCycles(toPU, fromNode, workingSetBytes)
}

// CheckpointCostCycles prices writing a task's working set out to its own
// node's memory — the checkpoint image a preempting scheduler must persist
// before it reclaims the slot mid-service. The respawn on the new cores is
// priced separately by MigrationCostCycles, which pulls the image from the
// old node; together they are the checkpoint/respawn bill a preempted job
// pays when it restarts. A negative pu (unbound stream) has no dirty state
// to flush and checkpoints for free.
func (m *Machine) CheckpointCostCycles(pu int, workingSetBytes float64) float64 {
	if pu < 0 {
		return 0
	}
	return m.memCostCycles(pu, m.nodeOf[pu], workingSetBytes)
}

// MissFactor returns the fraction of a working set that must be re-streamed
// from memory on every sweep, given the PU's share of the last-level cache:
// 1 when the set does not fit at all, decreasing linearly to
// MinCacheMissFactor when it fits entirely.
func (m *Machine) MissFactor(pu int, workingSet int64) float64 {
	share := m.l3Share[pu]
	if share <= 0 || workingSet <= 0 {
		return 1
	}
	ratio := float64(workingSet) / float64(share)
	if ratio >= 1 {
		return 1
	}
	f := m.cfg.MinCacheMissFactor + float64((1-m.cfg.MinCacheMissFactor)*ratio)
	return f
}

// CyclesToSeconds converts virtual cycles to simulated seconds.
func (m *Machine) CyclesToSeconds(cycles float64) float64 {
	return cycles / m.clockHz
}

// bindPU registers a bound Proc on a PU (for SMT compute inflation).
func (m *Machine) bindPU(pu int, delta int32) { m.boundPerPU[pu].Add(delta) }

// computeInflation returns the compute-cost factor for a PU:
// SMTComputeInflation when at least two distinct PUs of the PU's core are
// occupied by bound Procs (hyperthread resource sharing), 1 otherwise.
func (m *Machine) computeInflation(pu int) float64 {
	if pu < 0 {
		return 1
	}
	occupied := 0
	for _, p := range m.pusOfCore[m.coreOf[pu]] {
		if m.boundPerPU[p].Load() > 0 {
			occupied++
		}
	}
	if occupied >= 2 {
		return m.cfg.SMTComputeInflation
	}
	return 1
}
