package experiment

import (
	"fmt"
	"strings"
)

// The study registry: the one place a study of the suite is declared.
// cmd/ablate's dispatch, its -exp usage and the JSON report's identities,
// AblationOrderings, TestStudyRegistryInvariants and the README
// experiment-table guard are all derived from the Studies table, so adding a
// study means adding one entry here (plus its arm table and, when its rows
// are to be pinned, one committed `ablate -exp <name> -json` document under
// bench/). A study's
// whole configuration is its entry: every study is an AblationX that runs on
// the common Config alone (scale and seed) and derives any shape of its own
// from it; no caller reshapes one study.

// Study is one runnable study of the suite.
type Study struct {
	// Name is the -exp selector; ID the stable identifier in reports (A1…).
	Name, ID string
	// Desc says what the study compares; Title prefixes it with the ID.
	Desc string
	// Orderings are the relations between the study's rows that every
	// consumer asserts — the study tests, TestStudyRegistryInvariants and
	// cmd/ablate -json check the same statements, so a placement regression
	// cannot pass one gate and slip through another. A study whose row names
	// differ per cell (A4's block counts) has none.
	Orderings []Ordering
	// Cells are the default shape × seed configurations of the study, in
	// order; the first is the reduced scale cmd/ablate runs by default.
	// Only TestStudyRegistryInvariants (docs_test.go) reads the rest: it
	// asserts the Orderings on every cell in tier-1.
	Cells []Cell

	run func(Config) ([]AblationRow, error)
}

// Cell is one named shape × seed configuration of a study.
type Cell struct {
	Name   string
	Config Config
}

// Title is the study's report heading, e.g. "A9: multi-node placement (…)".
func (s Study) Title() string { return s.ID + ": " + s.Desc }

// Run executes the study at the given scale.
func (s Study) Run(cfg Config) ([]AblationRow, error) { return s.run(cfg) }

// Reduced is the scale cmd/ablate runs by default and the first cell of
// every study: small enough that the whole suite takes seconds, large enough
// that every asserted ordering holds.
var Reduced = Config{Rows: 4096, Cols: 4096, Iters: 10, Cores: 48, Seed: 7}

// atCores is the reduced scale at another core count, the knob the fabric
// studies derive their platform shape from, at seed 42.
func atCores(cores int) Config {
	c := Reduced
	c.Cores, c.Seed = cores, 42
	return c
}

var (
	reducedCell = Cell{"reduced", Reduced}
	// paperCells add the paper's full-scale configuration (16384², 100
	// iterations, 24×8 cores).
	paperCells = []Cell{reducedCell, {"paper", Config{Seed: 42}}}
)

// studies is the suite in report order.
var studies = []Study{
	{Name: "policies", ID: "A1", Desc: "placement policies (LK23, blocks = cores)",
		// compact and nobind are not ordered: at the reduced scale the
		// unbound run beats compact by a few hundred cycles.
		Orderings: []Ordering{
			{Before: "treematch", After: "compact", Strict: true},
			{Before: "treematch", After: "scatter", Strict: true},
			{Before: "treematch", After: "random", Strict: true},
			{Before: "treematch", After: "nobind", Strict: true},
		},
		Cells: paperCells, run: AblationPolicies},
	{Name: "control", ID: "A2", Desc: "control-thread strategies",
		Orderings: []Ordering{
			{Before: "smt/hyperthread", After: "smt/unmapped", Strict: true},
			{Before: "spare/mapped", After: "spare/unmapped", Strict: true},
		},
		Cells: paperCells, run: AblationControlThreads},
	{Name: "oversub", ID: "A3", Desc: "oversubscription (blocks vs cores)",
		// 4x against 2x cores flips between the cells.
		Orderings: []Ordering{{Before: "blocks=2x cores", After: "blocks=1x cores", Strict: true}},
		Cells:     paperCells, run: AblationOversubscription},
	// A4's rows are named by block count, which differs per cell, so no
	// ordering can name them on every cell.
	{Name: "granularity", ID: "A4", Desc: "block granularity",
		Cells: paperCells, run: AblationGranularity},
	{Name: "topology", ID: "A5", Desc: "topology shapes (192 cores each)",
		Orderings: []Ordering{
			{Before: "flat-24x8/orwl-bind", After: "flat-24x8/orwl-nobind", Strict: true},
			{Before: "numa-4x6x8/orwl-bind", After: "numa-4x6x8/orwl-nobind", Strict: true},
			{Before: "deep-2x2x3x16/orwl-bind", After: "deep-2x2x3x16/orwl-nobind", Strict: true},
		},
		Cells: paperCells, run: AblationTopology},
	{Name: "distribute", ID: "A6", Desc: "NUMA distribution (cluster + distribute vs cluster only)",
		// The two tie at the reduced scale.
		Orderings: []Ordering{{Before: "distribute", After: "cluster-only"}},
		Cells:     paperCells, run: AblationDistribution},
	{Name: "ompsched", ID: "A7", Desc: "OpenMP loop schedules vs bound ORWL",
		Orderings: []Ordering{
			{Before: "orwl-bind", After: "omp/static", Strict: true},
			{Before: "omp/static", After: "omp/guided", Strict: true},
			{Before: "omp/guided", After: "omp/dynamic", Strict: true},
		},
		Cells: paperCells, run: AblationOMPSchedule},
	{Name: "adaptive", ID: "A8", Desc: "adaptive re-placement (static vs epoch feedback vs oracle)",
		Orderings: []Ordering{
			{Before: "phase/adaptive", After: "phase/static", Strict: true},
			{Before: "phase/oracle", After: "phase/adaptive"},
		},
		Cells: []Cell{reducedCell},
		run:   AblationAdaptive},
	{Name: "cluster", ID: "A9", Desc: "multi-node placement (hierarchical vs flat vs rr-nodes vs one big node)",
		// Strict against the affinity-blind baseline; flat treematch can tie
		// exactly when both policies find the same optimal partition (the
		// reduced 4-node shape does; see TestAblationCluster).
		Orderings: []Ordering{
			{Before: "cluster/hierarchical", After: "cluster/flat"},
			{Before: "cluster/hierarchical", After: "cluster/rr-nodes", Strict: true},
		},
		Cells: []Cell{reducedCell, {"2x4", atCores(8)}},
		run:   AblationCluster},
	{Name: "rack", ID: "A10", Desc: "rack-tier fabric (fabric-aware vs fabric-blind vs flat treematch)",
		Orderings: []Ordering{
			{Before: "rack/rack-aware", After: "rack/rack-blind", Strict: true},
			{Before: "rack/rack-blind", After: "rack/flat", Strict: true},
		},
		Cells: []Cell{reducedCell, {"2x2x8", atCores(32)}},
		run:   AblationRack},
	{Name: "hetero", ID: "A11", Desc: "heterogeneous pod-tier platform (aware vs capacity-blind vs depth-blind)",
		Orderings: []Ordering{
			{Before: "hetero/aware", After: "hetero/capacity-blind", Strict: true},
			{Before: "hetero/capacity-blind", After: "hetero/depth-blind", Strict: true},
		},
		Cells: []Cell{reducedCell},
		run:   AblationHetero},
	{Name: "shift", ID: "A12", Desc: "cross-fabric adaptive migration (static vs adaptive-flat vs adaptive-fabric vs oracle)",
		Orderings: []Ordering{
			{Before: "shift/adaptive-fabric", After: "shift/adaptive-flat", Strict: true},
			{Before: "shift/adaptive-flat", After: "shift/static", Strict: true},
			{Before: "shift/oracle", After: "shift/adaptive-fabric"},
		},
		Cells: []Cell{reducedCell, {"2x2x8", atCores(32)}},
		run:   AblationShift},
	{Name: "torus", ID: "A13", Desc: "torus halo exchange on the routed fabric (sfc vs tree-matched vs rr)",
		Orderings: []Ordering{
			{Before: "torus/sfc", After: "torus/tree-matched", Strict: true},
			{Before: "torus/tree-matched", After: "torus/rr", Strict: true},
		},
		Cells: []Cell{reducedCell, {"4x4x4", atCores(64)}},
		run:   AblationTorus},
	{Name: "fault", ID: "A14", Desc: "fault injection and mid-run resilience (fault-aware vs spread vs fault-blind vs static-respawn)",
		Orderings: []Ordering{
			{Before: "fault/fault-aware", After: "fault/fault-blind", Strict: true},
			{Before: "fault/fault-blind", After: "fault/static-respawn", Strict: true},
			{Before: "fault/spread", After: "fault/static-respawn", Strict: true},
		},
		Cells: []Cell{reducedCell, {"2x6x8", atCores(96)}},
		run:   AblationFault},
	{Name: "sched", ID: "A15", Desc: "online multi-tenant scheduler (topo-aware vs topo-blind vs first-fit)",
		Orderings: []Ordering{
			{Before: "sched/topo-aware", After: "sched/topo-blind", Strict: true},
			{Before: "sched/topo-blind", After: "sched/first-fit", Strict: true},
		},
		Cells: []Cell{reducedCell},
		run:   AblationSched},
	{Name: "sched2", ID: "A16", Desc: "phase-2 scheduler policies (backfill + preemption + defrag vs backfill-only vs fifo)",
		Orderings: []Ordering{
			{Before: "sched2/full", After: "sched2/backfill", Strict: true},
			{Before: "sched2/backfill", After: "sched2/fifo", Strict: true},
		},
		Cells: []Cell{reducedCell},
		run:   AblationSched2},
}

// Studies returns the suite in report order.
func Studies() []Study { return append([]Study(nil), studies...) }

// SelectStudies resolves an -exp value — one name, "all", or a
// comma-separated list of either — against the suite, preserving report
// order. "all" stands for every study.
func SelectStudies(exp string) ([]Study, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(exp, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, s := range studies {
			if s.Name == name || name == "all" {
				want[s.Name], known = true, true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q", name)
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("unknown experiment %q", exp)
	}
	var out []Study
	for _, s := range studies {
		if want[s.Name] {
			out = append(out, s)
		}
	}
	return out, nil
}

// ExpUsage renders the -exp flag's usage from the registry.
func ExpUsage() string {
	var names []string
	for _, s := range studies {
		names = append(names, s.Name)
	}
	return fmt.Sprintf("study: %s, all (a comma-separated list selects several)", strings.Join(names, ", "))
}

// AblationOrderings returns the asserted orderings of one study, identified
// by its -exp name (nil for unknown names and studies without a pinned
// ordering).
func AblationOrderings(exp string) []Ordering {
	for _, s := range studies {
		if s.Name == exp {
			return s.Orderings
		}
	}
	return nil
}
