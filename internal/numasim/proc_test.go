package numasim

import (
	"testing"
)

func TestBoundProcBasics(t *testing.T) {
	m := paperMachine(t)
	p, err := m.NewProc("t0", 5)
	if err != nil {
		t.Fatalf("NewProc: %v", err)
	}
	if !p.Bound() || p.PU() != 5 || p.Name() != "t0" {
		t.Errorf("proc state wrong: %v %d %q", p.Bound(), p.PU(), p.Name())
	}
	if p.Clock() != 0 {
		t.Errorf("fresh clock = %v", p.Clock())
	}
	p.Compute(1000)
	// 1000 flops at 2 flops/cycle = 500 cycles.
	if got := p.Clock(); got != 500 {
		t.Errorf("clock after compute = %v, want 500", got)
	}
	p.ComputeCycles(100)
	if got := p.Clock(); got != 600 {
		t.Errorf("clock = %v, want 600", got)
	}
	if _, err := m.NewProc("bad", 999); err == nil {
		t.Errorf("out-of-range PU accepted")
	}
}

func TestMemAccessCharges(t *testing.T) {
	m := paperMachine(t)
	p, _ := m.NewProc("t0", 0)
	local, _ := m.AllocOn("local", 1<<20, 0)
	remote, _ := m.AllocOn("remote", 1<<20, 20)
	p.MemRead(local, 1<<20)
	localCost := p.Clock()
	p2, _ := m.NewProc("t1", 1)
	p2.MemRead(remote, 1<<20)
	remoteCost := p2.Clock()
	if !(localCost > 0 && remoteCost > localCost) {
		t.Errorf("costs: local %v remote %v", localCost, remoteCost)
	}
	st := p.Stats()
	if st.MemoryCycles != localCost || st.BytesMoved != 1<<20 {
		t.Errorf("stats = %+v", st)
	}
	// Zero-byte access is free.
	before := p.Clock()
	p.MemRead(local, 0)
	if p.Clock() != before {
		t.Errorf("zero-byte read charged")
	}
}

func TestFirstTouchSetsHome(t *testing.T) {
	m := paperMachine(t)
	p, _ := m.NewProc("t0", 100) // PU 100 lives on node 12
	r := m.AllocFirstTouch("data", 1<<20)
	p.SweepWorkingSet(r, 1<<20)
	if got := r.Home(); got != m.NodeOfPU(100) {
		t.Errorf("home = %d, want %d", got, m.NodeOfPU(100))
	}
	// Subsequent access from elsewhere does not re-home.
	p2, _ := m.NewProc("t1", 0)
	p2.MemRead(r, 100)
	if got := r.Home(); got != m.NodeOfPU(100) {
		t.Errorf("home moved to %d", got)
	}
}

func TestInterleavedCostBetweenLocalAndRemote(t *testing.T) {
	m := paperMachine(t)
	pl, _ := m.NewProc("l", 0)
	pr, _ := m.NewProc("r", 1)
	pi, _ := m.NewProc("i", 2)
	local, _ := m.AllocOn("L", 1<<22, 0)
	remote, _ := m.AllocOn("R", 1<<22, 23)
	inter := m.AllocInterleaved("I", 1<<22)
	pl.MemRead(local, 1<<22)
	pr.MemRead(remote, 1<<22)
	pi.MemRead(inter, 1<<22)
	if !(pl.Clock() < pi.Clock() && pi.Clock() < pr.Clock()) {
		t.Errorf("interleaved cost %v not between local %v and remote %v",
			pi.Clock(), pl.Clock(), pr.Clock())
	}
}

func TestSweepWorkingSetCacheEffect(t *testing.T) {
	m := paperMachine(t)
	p, _ := m.NewProc("t0", 0)
	r, _ := m.AllocOn("d", 1<<26, 0)
	small := int64(1 << 16) // fits in the L3 share
	big := int64(1 << 26)   // far larger than the L3

	p.SweepWorkingSet(r, small)
	smallCost := p.Clock()
	p2, _ := m.NewProc("t1", 1)
	p2.SweepWorkingSet(r, big)
	bigCost := p2.Clock()
	// Per byte, the cached sweep must be much cheaper.
	perSmall := smallCost / float64(small)
	perBig := bigCost / float64(big)
	if perSmall >= perBig {
		t.Errorf("cache effect missing: %v/byte (small) vs %v/byte (big)", perSmall, perBig)
	}
}

func TestAdvanceToRecordsWait(t *testing.T) {
	m := paperMachine(t)
	p, _ := m.NewProc("t0", 0)
	p.ComputeCycles(100)
	p.AdvanceTo(50) // in the past: no-op
	if p.Clock() != 100 {
		t.Errorf("AdvanceTo moved clock backwards: %v", p.Clock())
	}
	p.AdvanceTo(400)
	if p.Clock() != 400 {
		t.Errorf("AdvanceTo = %v, want 400", p.Clock())
	}
	if got := p.Stats().WaitCycles; got != 300 {
		t.Errorf("WaitCycles = %v, want 300", got)
	}
}

func TestUnboundRescheduleDeterministic(t *testing.T) {
	m := paperMachine(t)
	run := func(seed int64) (int, float64) {
		p := m.NewUnboundProc("u", seed)
		for i := 0; i < 50; i++ {
			p.Reschedule(1.0)
			p.ComputeCycles(10)
		}
		return p.Stats().Migrations, p.Clock()
	}
	m1, c1 := run(42)
	m2, c2 := run(42)
	if m1 != m2 || c1 != c2 {
		t.Errorf("unbound runs with same seed differ: (%d,%v) vs (%d,%v)", m1, c1, m2, c2)
	}
	if m1 == 0 {
		t.Errorf("no migrations with probability 1")
	}
	m3, _ := run(43)
	_ = m3 // different seed may legitimately coincide; only determinism is asserted
}

func TestBoundProcNeverMigrates(t *testing.T) {
	m := paperMachine(t)
	p, _ := m.NewProc("b", 7)
	for i := 0; i < 20; i++ {
		p.Reschedule(1.0)
	}
	if p.PU() != 7 || p.Stats().Migrations != 0 {
		t.Errorf("bound proc migrated: pu=%d migrations=%d", p.PU(), p.Stats().Migrations)
	}
}

func TestMigrationMakesProcCold(t *testing.T) {
	m := paperMachine(t)
	r, _ := m.AllocOn("d", 1<<26, 0)
	small := int64(1 << 16)

	warm := m.NewUnboundProc("w", 1)
	warm.SweepWorkingSet(r, small) // first sweep warms nothing here, but sets baseline
	base := warm.Clock()
	warm.SweepWorkingSet(r, small)
	warmCost := warm.Clock() - base

	cold := m.NewUnboundProc("c", 1)
	cold.SweepWorkingSet(r, small)
	mid := cold.Clock()
	// Force a migration, then sweep again: must pay full traffic + penalty.
	for i := 0; cold.Stats().Migrations == 0 && i < 100; i++ {
		cold.Reschedule(1.0)
	}
	if cold.Stats().Migrations == 0 {
		t.Fatalf("could not trigger migration")
	}
	afterMig := cold.Clock()
	cold.SweepWorkingSet(r, small)
	coldCost := cold.Clock() - afterMig
	if coldCost <= warmCost {
		t.Errorf("cold sweep %v not above warm sweep %v", coldCost, warmCost)
	}
	if afterMig-mid < m.Config().MigrationPenaltyCycles {
		t.Errorf("migration penalty not charged")
	}
}

func TestSMTInflation(t *testing.T) {
	m := smallMachine(t, "pack:1 core:2 pu:2")
	solo, _ := m.NewProc("solo", 2) // core 1, alone
	solo.Compute(1000)
	soloCost := solo.Clock()

	a, _ := m.NewProc("a", 0) // core 0, PU 0
	b, _ := m.NewProc("b", 1) // core 0, PU 1: core now shared
	a.Compute(1000)
	if a.Clock() <= soloCost {
		t.Errorf("SMT-shared compute %v not above solo %v", a.Clock(), soloCost)
	}
	// Releasing both occupants removes the inflation for new work.
	a.Release()
	b.Release()
	a2, _ := m.NewProc("a2", 0)
	a2.Compute(1000)
	if a2.Clock() > soloCost*1.01 {
		t.Errorf("inflation persists after release: %v vs %v", a2.Clock(), soloCost)
	}
	// Double release is a no-op.
	a.Release()
}

func TestMakespan(t *testing.T) {
	m := paperMachine(t)
	var procs []*Proc
	for i := 0; i < 4; i++ {
		p, _ := m.NewProc("p", i)
		p.ComputeCycles(float64(100 * (i + 1)))
		procs = append(procs, p)
	}
	if got := Makespan(procs); got != 400 {
		t.Errorf("Makespan = %v, want 400", got)
	}
	if Makespan(nil) != 0 {
		t.Errorf("empty makespan != 0")
	}
}

func TestChargeTransfer(t *testing.T) {
	m := paperMachine(t)
	p, _ := m.NewProc("t", 0)
	p.ChargeTransfer(250)
	p.ChargeTransfer(-5) // ignored
	if p.Clock() != 250 || p.Stats().TransferCycles != 250 {
		t.Errorf("transfer accounting: clock=%v stats=%+v", p.Clock(), p.Stats())
	}
}
