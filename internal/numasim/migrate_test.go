package numasim

import (
	"testing"

	"repro/internal/topology"
)

func migrateMachine(t *testing.T) *Machine {
	t.Helper()
	topo, err := topology.FromSpec("pack:2 l3:1 core:2 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMigrateToChargesPenaltyAndGoesCold(t *testing.T) {
	m := migrateMachine(t)
	p, err := m.NewProc("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.AllocOn("data", 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	p.SweepWorkingSet(r, 1<<10) // warm the caches
	before := p.Clock()

	if err := p.MigrateTo(2); err != nil { // core on the other socket
		t.Fatal(err)
	}
	if got := p.Clock() - before; got != m.Config().MigrationPenaltyCycles {
		t.Errorf("migration charged %v cycles, want the penalty %v", got, m.Config().MigrationPenaltyCycles)
	}
	if p.PU() != 2 {
		t.Errorf("Proc on PU %d after MigrateTo(2)", p.PU())
	}
	if p.Stats().Migrations != 1 {
		t.Errorf("migrations = %d, want 1", p.Stats().Migrations)
	}

	// Cold caches: the next sweep of a cache-resident set pays full traffic.
	warmStart := p.Clock()
	p.SweepWorkingSet(r, 1<<10)
	coldCost := p.Clock() - warmStart
	warmStart = p.Clock()
	p.SweepWorkingSet(r, 1<<10)
	warmCost := p.Clock() - warmStart
	if coldCost <= warmCost {
		t.Errorf("post-migration sweep %v not costlier than warm sweep %v", coldCost, warmCost)
	}
}

func TestMigrateToSamePUFree(t *testing.T) {
	m := migrateMachine(t)
	p, err := m.NewProc("w", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateTo(1); err != nil {
		t.Fatal(err)
	}
	if p.Clock() != 0 || p.Stats().Migrations != 0 {
		t.Errorf("no-op migration charged clock=%v migrations=%d", p.Clock(), p.Stats().Migrations)
	}
}

func TestMigrateToPinsUnboundProc(t *testing.T) {
	m := migrateMachine(t)
	p := m.NewUnboundProc("roamer", 1)
	if err := p.MigrateTo(3); err != nil {
		t.Fatal(err)
	}
	if !p.Bound() || p.PU() != 3 {
		t.Errorf("after MigrateTo: bound=%v pu=%d, want pinned to 3", p.Bound(), p.PU())
	}
	// A pinned Proc no longer follows the simulated OS scheduler.
	for i := 0; i < 10; i++ {
		p.Reschedule(1.0)
	}
	if p.PU() != 3 {
		t.Errorf("pinned Proc migrated by Reschedule to PU %d", p.PU())
	}
}

func TestPlaceAtIsFree(t *testing.T) {
	m := migrateMachine(t)
	p, err := m.NewProc("w", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.PlaceAt(2); err != nil {
		t.Fatal(err)
	}
	if p.Clock() != 0 {
		t.Errorf("PlaceAt charged %v cycles, want 0", p.Clock())
	}
	if p.PU() != 2 || p.Stats().Migrations != 1 {
		t.Errorf("PlaceAt: pu=%d migrations=%d", p.PU(), p.Stats().Migrations)
	}
}

func TestMigrateRegionRehomesAndCharges(t *testing.T) {
	m := migrateMachine(t)
	p, err := m.NewProc("w", 2) // socket 1
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.AllocOn("block", 1<<20, 0) // socket 0's node
	if err != nil {
		t.Fatal(err)
	}
	if err := p.MigrateRegion(r); err != nil {
		t.Fatal(err)
	}
	if r.Home() != m.NodeOfPU(2) {
		t.Errorf("region home %d after MigrateRegion, want %d", r.Home(), m.NodeOfPU(2))
	}
	if p.Stats().MemoryCycles <= 0 {
		t.Errorf("region pull charged no memory cycles")
	}
	// Re-homing a local region is free.
	before := p.Clock()
	if err := p.MigrateRegion(r); err != nil {
		t.Fatal(err)
	}
	if p.Clock() != before {
		t.Errorf("local re-home charged %v cycles", p.Clock()-before)
	}
}

func TestMigrateRegionUntouchedFirstTouchFree(t *testing.T) {
	m := migrateMachine(t)
	p, err := m.NewProc("w", 2)
	if err != nil {
		t.Fatal(err)
	}
	r := m.AllocFirstTouch("lazy", 1<<20)
	if err := p.MigrateRegion(r); err != nil {
		t.Fatal(err)
	}
	if r.Home() != m.NodeOfPU(2) {
		t.Errorf("untouched region home %d, want %d", r.Home(), m.NodeOfPU(2))
	}
	if p.Clock() != 0 {
		t.Errorf("re-homing an untouched region charged %v cycles", p.Clock())
	}
}

func TestMigrationCostCyclesPredicts(t *testing.T) {
	m := migrateMachine(t)
	if got := m.MigrationCostCycles(0, 0, 1<<20); got != 0 {
		t.Errorf("same-PU migration cost %v, want 0", got)
	}
	near := m.MigrationCostCycles(0, 1, 1<<20) // same socket
	far := m.MigrationCostCycles(0, 2, 1<<20)  // cross socket
	if near <= m.Config().MigrationPenaltyCycles {
		t.Errorf("near migration cost %v does not include the pull", near)
	}
	if far <= near {
		t.Errorf("cross-socket migration %v not costlier than same-socket %v", far, near)
	}
}

// TestMigrationCostNetworkPriced pins that the migration prediction an
// adaptive engine weighs is priced in network cycles once the move crosses
// the fabric: dragging the same working set costs strictly more across a
// node boundary than inside a node (the pull streams over two NIC links
// instead of shared memory), strictly more again across a rack boundary
// (the uplink hops join the path), and more still when the uplinks are
// declared contended (per-link streams share the uplink bandwidth).
func TestMigrationCostNetworkPriced(t *testing.T) {
	topo, err := topology.FromSpec("rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(topo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const ws = 4 << 20
	// PUs: 2 per node, 2 nodes per rack: PU 0 (node 0, rack 0), PU 1 same
	// node, PU 2 (node 1, rack 0), PU 4 (node 2, rack 1).
	intra := m.MigrationCostCycles(0, 1, ws)
	crossNode := m.MigrationCostCycles(0, 2, ws)
	crossRack := m.MigrationCostCycles(0, 4, ws)
	if !(intra < crossNode) {
		t.Errorf("intra-node migration %.0f not below cross-node %.0f; the NIC path went unpriced", intra, crossNode)
	}
	if !(crossNode < crossRack) {
		t.Errorf("cross-node migration %.0f not below cross-rack %.0f; the uplink hops went unpriced", crossNode, crossRack)
	}
	penalty := m.Config().MigrationPenaltyCycles
	if crossRack <= penalty {
		t.Errorf("cross-rack migration %.0f not above the bare penalty %.0f", crossRack, penalty)
	}
	// Declared uplink contention must raise the cross-rack bill: the pull
	// streams at the bottleneck link's shared bandwidth.
	m.Declare(Contention{Edges: levelStreams(m, []int{1, 1, 1, 1}, []int{8, 8})})
	contended := m.MigrationCostCycles(0, 4, ws)
	if !(crossRack < contended) {
		t.Errorf("uplink contention did not raise the cross-rack migration bill: %.0f vs %.0f", crossRack, contended)
	}
}
