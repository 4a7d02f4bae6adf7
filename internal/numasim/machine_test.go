package numasim

import (
	"testing"

	"repro/internal/topology"
)

func paperMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(topology.PaperMachine(), Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func smallMachine(t *testing.T, spec string) *Machine {
	t.Helper()
	top, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatalf("FromSpec: %v", err)
	}
	m, err := New(top, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestNewMachine(t *testing.T) {
	m := paperMachine(t)
	if m.ClockHz() != 2.27e9 {
		t.Errorf("ClockHz = %v", m.ClockHz())
	}
	if got := m.NodeOfPU(0); got != 0 {
		t.Errorf("NodeOfPU(0) = %d", got)
	}
	if got := m.NodeOfPU(191); got != 23 {
		t.Errorf("NodeOfPU(191) = %d, want 23", got)
	}
	if _, err := New(nil, Config{}); err == nil {
		t.Errorf("nil topology accepted")
	}
	cfg := m.Config()
	def := DefaultConfig()
	if cfg.FlopsPerCycle != def.FlopsPerCycle || cfg.SMTComputeInflation != def.SMTComputeInflation {
		t.Errorf("defaults not applied: %+v", cfg)
	}
}

func TestAccessors(t *testing.T) {
	m := paperMachine(t)
	if m.Accessors(0) != 1 {
		t.Errorf("default accessors = %d", m.Accessors(0))
	}
	m.SetAccessors(0, 8)
	if m.Accessors(0) != 8 {
		t.Errorf("accessors = %d", m.Accessors(0))
	}
	m.SetAccessors(1, -2) // clamps to 1
	if m.Accessors(1) != 1 {
		t.Errorf("negative accessors = %d, want 1", m.Accessors(1))
	}
}

func TestContentionScalesBandwidth(t *testing.T) {
	m := paperMachine(t)
	_, bw1 := m.accessPrice(0, 0)
	m.SetAccessors(0, 10)
	_, bw10 := m.accessPrice(0, 0)
	if bw10 >= bw1 {
		t.Fatalf("contention did not reduce bandwidth: %v -> %v", bw1, bw10)
	}
	if got, want := bw1/bw10, 10.0; got < want*0.99 || got > want*1.01 {
		t.Errorf("contention ratio = %v, want ~10", got)
	}
}

func TestRemoteCostsMoreThanLocal(t *testing.T) {
	m := paperMachine(t)
	local := m.memCostCycles(0, 0, 1<<20)
	remote := m.memCostCycles(0, 12, 1<<20)
	if remote <= local {
		t.Errorf("remote cost %v not above local %v", remote, local)
	}
	// Latency-only part also ordered.
	if far, _ := m.accessPrice(0, 12); far <= m.Topology().NUMANodes()[0].Attr.LatencyCycles {
		t.Errorf("remote latency not above local")
	}
	if m.memCostCycles(0, 0, 0) != 0 {
		t.Errorf("zero bytes should be free")
	}
}

func TestTransferCost(t *testing.T) {
	// pack:2 l3:1 core:4 -> 4 cores per socket share an L3.
	m := smallMachine(t, "pack:2 l3:1 core:4 pu:1")
	samePU := m.TransferCost(0, 0, 4096)
	sameL3 := m.TransferCost(0, 1, 4096)
	sameNode := sameL3 // all of socket 0 shares the L3 here
	cross := m.TransferCost(0, 4, 4096)
	if samePU != 0 {
		t.Errorf("same-PU transfer = %v, want 0", samePU)
	}
	if !(sameL3 > 0 && cross > sameNode) {
		t.Errorf("transfer ordering violated: l3=%v cross=%v", sameL3, cross)
	}
	// On-chip transfers must be far cheaper than cross-socket ones.
	if cross < 5*sameL3 {
		t.Errorf("cross-socket %v not ≫ shared-cache %v", cross, sameL3)
	}
	// Unbound endpoints still produce a finite positive cost.
	if c := m.TransferCost(-1, 3, 4096); c <= 0 {
		t.Errorf("unbound-from transfer = %v", c)
	}
	if c := m.TransferCost(3, -1, 4096); c <= 0 {
		t.Errorf("unbound-to transfer = %v", c)
	}
}

func TestMissFactor(t *testing.T) {
	m := paperMachine(t) // 24 MiB L3 shared by 8 cores -> 3 MiB/PU share
	tiny := m.MissFactor(0, 1<<10)
	huge := m.MissFactor(0, 1<<30)
	if huge != 1 {
		t.Errorf("huge working set factor = %v, want 1", huge)
	}
	if tiny >= huge {
		t.Errorf("tiny factor %v not below huge %v", tiny, huge)
	}
	if tiny < DefaultConfig().MinCacheMissFactor {
		t.Errorf("tiny factor %v below floor", tiny)
	}
	if m.MissFactor(0, 0) != 1 {
		t.Errorf("zero working set factor != 1")
	}
	// Monotone in the working-set size.
	prev := 0.0
	for ws := int64(1 << 16); ws <= 1<<26; ws <<= 2 {
		f := m.MissFactor(0, ws)
		if f < prev {
			t.Errorf("MissFactor not monotone at %d: %v < %v", ws, f, prev)
		}
		prev = f
	}
}

func TestCyclesToSeconds(t *testing.T) {
	m := paperMachine(t)
	if got := m.CyclesToSeconds(2.27e9); got < 0.999 || got > 1.001 {
		t.Errorf("1s of cycles = %v s", got)
	}
}

func TestRegionAllocation(t *testing.T) {
	m := paperMachine(t)
	r, err := m.AllocOn("a", 1024, 3)
	if err != nil {
		t.Fatalf("AllocOn: %v", err)
	}
	if r.Home() != 3 || r.Policy() != Explicit || r.Bytes() != 1024 || r.Name() != "a" {
		t.Errorf("region = %v %v %d %q", r.Home(), r.Policy(), r.Bytes(), r.Name())
	}
	if _, err := m.AllocOn("bad", 1, 99); err == nil {
		t.Errorf("out-of-range node accepted")
	}
	if _, err := m.AllocOn("bad", -1, 0); err == nil {
		t.Errorf("negative size accepted")
	}
	ft := m.AllocFirstTouch("ft", 10)
	if ft.Home() != -1 {
		t.Errorf("untouched first-touch home = %d", ft.Home())
	}
	il := m.AllocInterleaved("il", 10)
	if il.Home() != -1 || il.Policy() != Interleaved {
		t.Errorf("interleaved region: %d %v", il.Home(), il.Policy())
	}
	if err := r.MoveTo(5); err != nil || r.Home() != 5 {
		t.Errorf("MoveTo: %v, home %d", err, r.Home())
	}
	if err := r.MoveTo(-1); err == nil {
		t.Errorf("MoveTo(-1) accepted")
	}
}

func TestPlacementString(t *testing.T) {
	if FirstTouch.String() != "first-touch" || Explicit.String() != "explicit" ||
		Interleaved.String() != "interleaved" {
		t.Errorf("placement names wrong")
	}
	if Placement(7).String() == "" {
		t.Errorf("unknown placement empty")
	}
}
