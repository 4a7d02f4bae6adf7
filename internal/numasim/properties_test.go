package numasim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

// TestMemCostMonotoneInBytes: moving more bytes never costs less.
func TestMemCostMonotoneInBytes(t *testing.T) {
	m := paperMachine(t)
	f := func(puSel, nodeSel uint8, b1, b2 uint16) bool {
		pu := int(puSel) % m.Topology().NumPUs()
		node := int(nodeSel) % m.Topology().NumNUMANodes()
		lo, hi := float64(b1), float64(b2)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.memCostCycles(pu, node, lo) <= m.memCostCycles(pu, node, hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// TestMemCostMonotoneInContention: more accessors never make access faster.
func TestMemCostMonotoneInContention(t *testing.T) {
	m := paperMachine(t)
	prev := 0.0
	for acc := 1; acc <= 32; acc *= 2 {
		m.SetAccessors(5, acc)
		c := m.memCostCycles(0, 5, 1<<20)
		if c < prev {
			t.Errorf("cost decreased with contention at %d accessors: %v < %v", acc, c, prev)
		}
		prev = c
	}
}

// TestRemoteStreamsCapBandwidth: declaring fabric contention slows remote
// accesses but never local ones.
func TestRemoteStreamsCapBandwidth(t *testing.T) {
	m := paperMachine(t)
	localBefore := m.memCostCycles(0, 0, 1<<22)
	remoteBefore := m.memCostCycles(0, 12, 1<<22)
	m.SetRemoteStreams(200)
	localAfter := m.memCostCycles(0, 0, 1<<22)
	remoteAfter := m.memCostCycles(0, 12, 1<<22)
	if localAfter != localBefore {
		t.Errorf("local cost changed with remote streams: %v vs %v", localAfter, localBefore)
	}
	if remoteAfter <= remoteBefore {
		t.Errorf("remote cost did not grow under fabric contention: %v vs %v", remoteAfter, remoteBefore)
	}
	m.SetRemoteStreams(-1) // clamps to 0
	if m.RemoteStreams() != 0 {
		t.Errorf("negative remote streams = %d", m.RemoteStreams())
	}
}

// TestTransferCostMonotoneInDistance: same PU <= shared cache <= same node
// <= remote, for a fixed payload.
func TestTransferCostMonotoneInDistance(t *testing.T) {
	top, err := topology.FromSpec("pack:2 numa:2 l3:1 core:2 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(top, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// PUs: 0,1 share an L3 (node 0); 2,3 on node 1 same package; 4.. other
	// package.
	const bytes = 1 << 16
	same := m.TransferCost(0, 0, bytes)
	cache := m.TransferCost(0, 1, bytes)
	intraPack := m.TransferCost(0, 2, bytes)
	cross := m.TransferCost(0, 4, bytes)
	if !(same <= cache && cache <= intraPack && intraPack <= cross) {
		t.Errorf("transfer not monotone: same=%v cache=%v intra=%v cross=%v",
			same, cache, intraPack, cross)
	}
}

// TestDeterministicAcrossMachines: two identically-built machines price
// identical workloads identically.
func TestDeterministicAcrossMachines(t *testing.T) {
	run := func() float64 {
		m := paperMachine(t)
		m.SetAccessors(0, 4)
		m.SetRemoteStreams(10)
		p, err := m.NewProc("t", 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := m.AllocOn("d", 1<<24, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			p.Compute(1e6)
			p.MemRead(r, 1<<16)
			p.SweepWorkingSet(r, 1<<20)
		}
		return p.Clock()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical machines priced differently: %v vs %v", a, b)
	}
}

// TestCustomAttrsPropagate: custom topology attributes flow into the cost
// model.
func TestCustomAttrsPropagate(t *testing.T) {
	slow := topology.DefaultAttrs()
	slow.MemBandwidth = slow.MemBandwidth / 4
	topoSlow, err := topology.FromSpecAttrs("pack:2 core:4 pu:1", slow)
	if err != nil {
		t.Fatal(err)
	}
	mSlow, err := New(topoSlow, Config{})
	if err != nil {
		t.Fatal(err)
	}
	mFast := smallMachine(t, "pack:2 core:4 pu:1")
	costSlow := mSlow.memCostCycles(0, 0, 1<<24)
	costFast := mFast.memCostCycles(0, 0, 1<<24)
	if costSlow <= costFast*2 {
		t.Errorf("quarter bandwidth not reflected: slow %v vs fast %v", costSlow, costFast)
	}
}

// TestConfigOverrides: explicit Config fields survive the defaulting.
func TestConfigOverrides(t *testing.T) {
	m, err := New(topology.PaperMachine(), Config{
		FlopsPerCycle:         8,
		InterconnectBandwidth: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.FlopsPerCycle != 8 || cfg.InterconnectBandwidth != 1e9 {
		t.Errorf("overrides lost: %+v", cfg)
	}
	if cfg.SMTComputeInflation != DefaultConfig().SMTComputeInflation {
		t.Errorf("unset field not defaulted: %+v", cfg)
	}
	p, err := m.NewProc("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	p.Compute(800)
	if p.Clock() != 100 {
		t.Errorf("8 flops/cycle: clock = %v, want 100", p.Clock())
	}
}
