package experiment

import (
	"strings"
	"testing"
)

// smallCfg keeps unit-test runs fast: a reduced matrix and iteration count
// preserve every ratio in the model (costs are linear in both).
func smallCfg() Config {
	return Config{Rows: 4096, Cols: 4096, Iters: 10, Seed: 42}
}

func TestBlockGrid(t *testing.T) {
	cases := []struct{ n, bx, by int }{
		{192, 16, 12},
		{8, 4, 2},
		{16, 4, 4},
		{48, 8, 6},
		{1, 1, 1},
		{7, 7, 1},
		{144, 12, 12},
	}
	for _, tc := range cases {
		bx, by := BlockGrid(tc.n)
		if bx != tc.bx || by != tc.by {
			t.Errorf("BlockGrid(%d) = %dx%d, want %dx%d", tc.n, bx, by, tc.bx, tc.by)
		}
		if bx*by != tc.n {
			t.Errorf("BlockGrid(%d) does not factor", tc.n)
		}
	}
}

func TestMachineShapes(t *testing.T) {
	m, err := Machine(Config{Cores: 16, CoresPerSocket: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Topology().NumCores() != 16 || m.Topology().NumNUMANodes() != 2 {
		t.Errorf("16-core machine: %v", m.Topology())
	}
	// Fewer cores than a socket: one small socket.
	m, err = Machine(Config{Cores: 4, CoresPerSocket: 8})
	if err != nil {
		t.Fatal(err)
	}
	if m.Topology().NumCores() != 4 || m.Topology().NumNUMANodes() != 1 {
		t.Errorf("4-core machine: %v", m.Topology())
	}
	// Indivisible core counts are rejected.
	if _, err := Machine(Config{Cores: 12, CoresPerSocket: 8}); err == nil {
		t.Errorf("12 cores on 8-core sockets accepted")
	}
	// SMT doubles the PUs.
	m, err = Machine(Config{Cores: 8, CoresPerSocket: 8, SMT: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Topology().NumPUs() != 16 {
		t.Errorf("SMT machine PUs = %d", m.Topology().NumPUs())
	}
}

func TestRunUnknownImpl(t *testing.T) {
	if _, err := Run(Impl("bogus"), smallCfg()); err == nil {
		t.Errorf("unknown implementation accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallCfg()
	cfg.Cores = 16
	for _, impl := range []Impl{ORWLBind, ORWLNoBind, OpenMP} {
		a, err := Run(impl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		b, err := Run(impl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", impl, err)
		}
		if a.Seconds != b.Seconds {
			t.Errorf("%s not deterministic: %v vs %v", impl, a.Seconds, b.Seconds)
		}
		if a.Seconds <= 0 {
			t.Errorf("%s: no simulated time", impl)
		}
	}
}

func TestRunMetadata(t *testing.T) {
	cfg := smallCfg()
	cfg.Cores = 16
	res, err := Run(ORWLBind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "treematch" || res.Blocks != 16 || res.Tasks != 144 {
		t.Errorf("metadata: %+v", res)
	}
	if res.Migrations != 0 {
		t.Errorf("bound run migrated %d times", res.Migrations)
	}
	nb, err := Run(ORWLNoBind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Migrations == 0 {
		t.Errorf("unbound run never migrated")
	}
	if !strings.Contains(res.String(), "orwl-bind") {
		t.Errorf("String() = %q", res.String())
	}
}

// TestFigure1Shape is the reproduction's headline assertion: the relations
// the paper reports for Figure 1 must hold for the simulated times.
func TestFigure1Shape(t *testing.T) {
	cfg := smallCfg()
	points := []int{8, 32, 96, 192}
	rows, err := Figure1(points, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(points) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// ORWL Bind is never slower than the alternatives (small tolerance
		// for the one-socket tie).
		if r.Bind > r.NoBind*1.02 {
			t.Errorf("%d cores: bind %v slower than nobind %v", r.Cores, r.Bind, r.NoBind)
		}
		if r.Bind > r.OMP*1.02 {
			t.Errorf("%d cores: bind %v slower than openmp %v", r.Cores, r.Bind, r.OMP)
		}
	}
	// At one socket the three implementations are close (within 15%).
	first := rows[0]
	if first.NoBind > first.Bind*1.15 || first.OMP > first.Bind*1.15 {
		t.Errorf("one-socket times not close: %+v", first)
	}
	// Bind scales: monotone decreasing over the sweep, and by at least 10x
	// from 8 to 192 cores.
	for i := 1; i < len(rows); i++ {
		if rows[i].Bind >= rows[i-1].Bind {
			t.Errorf("bind not monotone: %v then %v", rows[i-1].Bind, rows[i].Bind)
		}
	}
	if rows[len(rows)-1].Bind > rows[0].Bind/10 {
		t.Errorf("bind scaled only %vx", rows[0].Bind/rows[len(rows)-1].Bind)
	}
	// The paper's speedups at 192 cores: ~2.8x vs NoBind, ~5x vs OpenMP.
	last := rows[len(rows)-1]
	if got := last.NoBind / last.Bind; got < 2.0 || got > 4.0 {
		t.Errorf("nobind/bind at 192 = %v, want ~2.8", got)
	}
	if got := last.OMP / last.Bind; got < 3.5 || got > 7.0 {
		t.Errorf("omp/bind at 192 = %v, want ~5", got)
	}
	// OpenMP plateaus: scaling from 32 to 192 cores (6x more cores) gains
	// less than 2.5x.
	var at32, at192 float64
	for _, r := range rows {
		if r.Cores == 32 {
			at32 = r.OMP
		}
		if r.Cores == 192 {
			at192 = r.OMP
		}
	}
	if gain := at32 / at192; gain > 2.5 {
		t.Errorf("openmp gained %vx from 32 to 192 cores; expected a plateau", gain)
	}
	// The table renderer mentions every core count.
	out := FormatFigure1(rows)
	for _, want := range []string{"cores", "orwl-bind", "192", "8"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFigure1 missing %q:\n%s", want, out)
		}
	}
}

// TestDefaultFigure1Points holds the default sweep of cmd/lk23 -figure1 to
// at least five core counts, the one socket and the whole machine included.
func TestDefaultFigure1Points(t *testing.T) {
	pts := DefaultFigure1Points()
	if len(pts) < 5 || pts[0] != 8 || pts[len(pts)-1] != 192 {
		t.Errorf("default points %v: want at least 5, from 8 to 192 cores", pts)
	}
}

func TestFullScaleAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("full 16384x16384, 100-iteration run")
	}
	// The paper's anchors at full scale: ORWL Bind finishes in ~11
	// simulated seconds (paper: "a minimum processing time of about 11
	// seconds"); we accept 8-15.
	res, err := Run(ORWLBind, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds < 8 || res.Seconds > 15 {
		t.Errorf("full-scale bind = %vs, paper anchor ~11s", res.Seconds)
	}
}

func TestSafeRatio(t *testing.T) {
	if safeRatio(4, 2) != 2 || safeRatio(1, 0) != 0 {
		t.Errorf("safeRatio misbehaves")
	}
}
