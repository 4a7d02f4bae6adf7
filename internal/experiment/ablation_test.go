package experiment

import (
	"fmt"
	"strings"
	"testing"
)

// armNamed returns the policy of a study's arm named mode.
func armNamed[P any](t *testing.T, arms []arm[P], mode string) P {
	t.Helper()
	p, err := armPolicy("test", arms, mode)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ablCfg() Config {
	return Config{Rows: 4096, Cols: 4096, Iters: 5, Cores: 32, Seed: 7}
}

func TestAblationPolicies(t *testing.T) {
	rows, err := AblationPolicies(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s: no time", r.Name)
		}
		byName[r.Name] = r.Seconds
	}
	// TreeMatch must be at least as good as every alternative (tolerance
	// for ties with other bound policies at this scale).
	tm := byName["treematch"]
	for name, s := range byName {
		if s < tm*0.98 {
			t.Errorf("policy %s (%v) beats treematch (%v)", name, s, tm)
		}
	}
	// The unbound baseline must be measurably worse than every bound one
	// at 4 sockets... at this small scale nobind may tie; it must at least
	// not win.
	if byName["nobind"] < tm*0.98 {
		t.Errorf("nobind (%v) beats treematch (%v)", byName["nobind"], tm)
	}
	out := FormatAblation("A1", rows)
	if !strings.Contains(out, "treematch") || !strings.Contains(out, "A1") {
		t.Errorf("FormatAblation output: %s", out)
	}
}

func TestAblationControlThreads(t *testing.T) {
	rows, err := AblationControlThreads(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Hyperthread pairing must beat unmapped controls on the SMT machine.
	if h, u := byName["smt/hyperthread"], byName["smt/unmapped"]; h.Seconds >= u.Seconds {
		t.Errorf("hyperthread controls %v not faster than unmapped %v", h.Seconds, u.Seconds)
	}
	if byName["smt/hyperthread"].Detail != "hyperthread" {
		t.Errorf("smt strategy = %q", byName["smt/hyperthread"].Detail)
	}
	// Spare-core mapping must beat unmapped controls.
	if m, u := byName["spare/mapped"], byName["spare/unmapped"]; m.Seconds >= u.Seconds {
		t.Errorf("spare-core controls %v not faster than unmapped %v", m.Seconds, u.Seconds)
	}
	if byName["spare/mapped"].Detail != "spare-cores" {
		t.Errorf("spare strategy = %q", byName["spare/mapped"].Detail)
	}
}

func TestAblationOversubscription(t *testing.T) {
	rows, err := AblationOversubscription(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More blocks on the same cores must not speed the run up, and the
	// protocol overhead of 4x oversubscription should stay bounded (< 2x).
	if rows[1].Seconds < rows[0].Seconds*0.98 {
		t.Errorf("2x oversubscription faster than 1x: %v vs %v", rows[1].Seconds, rows[0].Seconds)
	}
	if rows[2].Seconds > rows[0].Seconds*2 {
		t.Errorf("4x oversubscription overhead too high: %v vs %v", rows[2].Seconds, rows[0].Seconds)
	}
}

func TestAblationGranularity(t *testing.T) {
	rows, err := AblationGranularity(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// One block per core must beat the quarter-machine configuration
	// (cores idle otherwise).
	var quarter, full float64
	for _, r := range rows {
		switch r.Name {
		case "8 blocks":
			quarter = r.Seconds
		case "32 blocks":
			full = r.Seconds
		}
	}
	if full >= quarter {
		t.Errorf("full occupancy %v not faster than quarter %v", full, quarter)
	}
}

func TestAblationTopology(t *testing.T) {
	rows, err := AblationTopology(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	// On every topology the bound run beats (or ties) the unbound one.
	for i := 0; i < len(rows); i += 2 {
		bind, nobind := rows[i], rows[i+1]
		if bind.Seconds > nobind.Seconds*1.02 {
			t.Errorf("%s: bind %v slower than nobind %v", bind.Name, bind.Seconds, nobind.Seconds)
		}
	}
}

func TestAblationOMPSchedule(t *testing.T) {
	rows, err := AblationOMPSchedule(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]float64{}
	for _, r := range rows {
		if r.Seconds <= 0 {
			t.Errorf("%s: no time", r.Name)
		}
		byName[r.Name] = r.Seconds
	}
	// The point of A7: no OpenMP schedule rescues the baseline — every
	// schedule stays well above the bound ORWL reference (>= 1.3x here,
	// ~5x at full machine scale).
	bind := byName["orwl-bind"]
	for _, sched := range []string{"omp/static", "omp/dynamic", "omp/guided"} {
		if byName[sched] < bind*1.3 {
			t.Errorf("%s (%v) too close to orwl-bind (%v); scheduling should not fix affinity",
				sched, byName[sched], bind)
		}
	}
	// Schedules stay within 25% of each other: the bottleneck is memory
	// placement, not load balance.
	if byName["omp/dynamic"] > byName["omp/static"]*1.25 ||
		byName["omp/static"] > byName["omp/dynamic"]*1.25 {
		t.Errorf("schedules diverge: static %v dynamic %v",
			byName["omp/static"], byName["omp/dynamic"])
	}
}

// nodesUsed reads the node-spread metric off an A6 row's detail.
func nodesUsed(r AblationRow) int {
	var n int
	fmt.Sscanf(r.Detail, "%d", &n)
	return n
}

func TestAblationDistribution(t *testing.T) {
	rows, err := AblationDistribution(ablCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	dist, packed := rows[0], rows[1]
	// The structural effect of the paper's distribution requirement: the
	// restricted tree forces the tasks across more NUMA nodes than pure
	// affinity clustering uses.
	if nodesUsed(dist) <= nodesUsed(packed) {
		t.Errorf("distribution uses %d nodes, cluster-only %d; no spread",
			nodesUsed(dist), nodesUsed(packed))
	}
	if dist.Seconds <= 0 || packed.Seconds <= 0 {
		t.Errorf("missing times: %+v", rows)
	}
}
