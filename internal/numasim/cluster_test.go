package numasim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/topology"
)

func newTestCluster(t *testing.T, n int, nodeSpec string) *Platform {
	t.Helper()
	c, err := NewPlatform(fmt.Sprintf("cluster:%d %s", n, nodeSpec), Config{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClusterShape(t *testing.T) {
	c := newTestCluster(t, 4, "pack:2 core:8")
	if c.Nodes() != 4 {
		t.Fatalf("Nodes() = %d, want 4", c.Nodes())
	}
	fused := c.Machine()
	if got := fused.Topology().NumCores(); got != 64 {
		t.Fatalf("fused cores = %d, want 64", got)
	}
	for i := 0; i < c.Nodes(); i++ {
		if got := c.NodeCores(i); got != 16 {
			t.Fatalf("member %d cores = %d, want 16", i, got)
		}
	}
	// PU ownership is contiguous per node, left to right.
	perNode := fused.Topology().NumPUs() / c.Nodes()
	for pu := 0; pu < fused.Topology().NumPUs(); pu++ {
		if got, want := fused.ClusterNodeOfPU(pu), pu/perNode; got != want {
			t.Fatalf("ClusterNodeOfPU(%d) = %d, want %d", pu, got, want)
		}
	}
}

func TestClusterRejectsNestedClusterSpec(t *testing.T) {
	_, err := NewPlatform("cluster:2 cluster:2 core:4", Config{})
	if err == nil || !strings.Contains(err.Error(), "platform spec") {
		t.Fatalf("nested cluster spec accepted: %v", err)
	}
}

func TestClusterFromSpec(t *testing.T) {
	c, err := NewPlatformAttrs("node:2 pack:2 core:4", topology.DefaultAttrs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 2 || c.Machine().Topology().NumCores() != 16 {
		t.Fatalf("platform shape: nodes=%d cores=%d", c.Nodes(), c.Machine().Topology().NumCores())
	}
	// A plain machine spec yields a single-node platform.
	c, err = NewPlatformAttrs("pack:2 core:4", topology.DefaultAttrs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 1 {
		t.Fatalf("single-machine spec: %d nodes, want 1", c.Nodes())
	}
}

// TestTransferCostCrossesFabric is the pricing contract of the tentpole: a
// handoff crossing a cluster-node boundary charges network cycles — at least
// the fabric's per-link latency on both links — and costs strictly more than
// the same handoff inside one node.
func TestTransferCostCrossesFabric(t *testing.T) {
	c := newTestCluster(t, 2, "pack:2 l3:1 core:4")
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 2
	const bytes = 1 << 20

	sameNode := m.TransferCost(0, perNode-1, bytes) // cross-socket, same machine
	cross := m.TransferCost(0, perNode, bytes)      // across the fabric
	if cross <= sameNode {
		t.Fatalf("cross-node transfer (%.0f cycles) not more expensive than intra-node (%.0f)", cross, sameNode)
	}
	nic := m.FabricGraph().Edges()[0]
	if cross < 2*nic.LatencyCycles {
		t.Fatalf("cross-node transfer %.0f cycles cheaper than two link latencies (%.0f)", cross, 2*nic.LatencyCycles)
	}
	// Streaming time is bounded below by the link bandwidth.
	clock := m.ClockHz()
	if minStream := bytes / (nic.BandwidthBytesPerSec / clock); cross < minStream {
		t.Fatalf("cross-node transfer %.0f cycles faster than the link allows (%.0f)", cross, minStream)
	}
}

// TestMemAccessCrossesFabric: a region homed on another cluster node is
// streamed over the network, not the SMP interconnect.
func TestMemAccessCrossesFabric(t *testing.T) {
	c := newTestCluster(t, 2, "pack:1 l3:1 core:4")
	m := c.Machine()
	remoteNUMA := m.Topology().NumNUMANodes() - 1
	if m.cnodeOfNUMA[0] == m.cnodeOfNUMA[remoteNUMA] {
		t.Fatal("test setup: NUMA nodes 0 and last should be on different cluster nodes")
	}
	local, err := m.AllocOn("local", 1<<22, 0)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := m.AllocOn("remote", 1<<22, remoteNUMA)
	if err != nil {
		t.Fatal(err)
	}
	pLocal, err := m.NewProc("l", 0)
	if err != nil {
		t.Fatal(err)
	}
	pRemote, err := m.NewProc("r", 1)
	if err != nil {
		t.Fatal(err)
	}
	pLocal.MemRead(local, 1<<20)
	pRemote.MemRead(remote, 1<<20)
	if pRemote.Clock() <= pLocal.Clock() {
		t.Fatalf("cross-fabric read (%.0f cycles) not slower than local (%.0f)", pRemote.Clock(), pLocal.Clock())
	}
}

// TestMigrationCostCrossesFabric: the adaptive engine's hysteresis input
// must price an inter-node migration (working-set transfer over the fabric)
// above an equivalent intra-node migration.
func TestMigrationCostCrossesFabric(t *testing.T) {
	c := newTestCluster(t, 2, "pack:2 l3:1 core:4")
	m := c.Machine()
	perNode := m.Topology().NumPUs() / 2
	const ws = 8 << 20
	intra := m.MigrationCostCycles(0, perNode-1, ws) // cross-socket, same machine
	inter := m.MigrationCostCycles(0, perNode, ws)   // across the fabric
	if inter <= intra {
		t.Fatalf("inter-node migration (%.0f cycles) not more expensive than intra-node (%.0f)", inter, intra)
	}
}

// TestFabricParametersBite: halving the link bandwidth raises the cross-node
// transfer cost; the intra-node cost is untouched.
func TestFabricParametersBite(t *testing.T) {
	withNet := func(bw float64) topology.Defaults {
		def := topology.DefaultAttrs()
		def.NetBandwidth = bw
		return def
	}
	fast, err := NewPlatformAttrs("cluster:2 pack:1 core:4", withNet(8e9), Config{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := NewPlatformAttrs("cluster:2 pack:1 core:4", withNet(1e9), Config{})
	if err != nil {
		t.Fatal(err)
	}
	perNode := fast.Machine().Topology().NumPUs() / 2
	const bytes = 16 << 20
	if f, s := fast.Machine().TransferCost(0, perNode, bytes), slow.Machine().TransferCost(0, perNode, bytes); s <= f {
		t.Fatalf("slower link not more expensive: fast=%.0f slow=%.0f", f, s)
	}
	if f, s := fast.Machine().TransferCost(0, 1, bytes), slow.Machine().TransferCost(0, 1, bytes); s != f {
		t.Fatalf("intra-node transfer affected by fabric bandwidth: fast=%.0f slow=%.0f", f, s)
	}
}

// TestSingleMachineUnaffected: a machine without a cluster level prices
// exactly as before (cluster-node index 0 everywhere, no fabric terms).
func TestSingleMachineUnaffected(t *testing.T) {
	topo, err := topology.FromSpec("pack:2 l3:1 core:4")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for pu := 0; pu < topo.NumPUs(); pu++ {
		if m.ClusterNodeOfPU(pu) != 0 {
			t.Fatalf("PU %d on cluster node %d, want 0", pu, m.ClusterNodeOfPU(pu))
		}
	}
}
