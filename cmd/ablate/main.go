// Command ablate runs the studies of the reproduction: the design choices of
// the paper's placement module isolated one at a time (A1–A16; the README's
// experiment table is the index). The suite is declared once, in
// internal/experiment's study registry; `ablate -h` lists the -exp names.
//
//	ablate                    # run every ablation at a reduced scale
//	ablate -exp policies      # one study by name
//	ablate -exp rack,hetero   # a comma-separated list; "all" may be a member
//	ablate -full              # paper-scale matrix and iterations
//
// The fault ablation's failure schedule can be overridden from the command
// line: -fault-kill "node@epoch", -fault-degrade "level:link:factor@epoch"
// and -fault-sever "level:link@epoch" each accept a comma-separated list,
// and together they replace the default correlated kill+degrade scenario.
// The scheduler ablation's workload and policy knobs are likewise
// overridable: -sched-jobs and -sched-churn reshape the job stream,
// -sched-constraints sets the constrained fraction, and -sched-fit /
// -sched-queue select the domain scoring rule (best, worst) and the
// required-tier-full policy (wait, reject) of every arm. The same -sched-*
// knobs reshape the phase-2 ablation's stream too, and -sched2-priorities /
// -sched2-defrag-threshold additionally set its priority-class count and
// the fragmentation weight that arms defragmentation.
// With -json the results are emitted as one machine-readable JSON document
// on stdout — per-ablation rows with simulated seconds and cycle counts,
// plus the asserted orderings and their verdicts — and the exit status is
// non-zero when any asserted ordering is violated. The document carries
// simulated time only, so it is a pure function of (studies, configuration,
// seed): bench/BENCH_*.json are committed -json documents and
// TestBenchArtifacts regenerates each and requires identical bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiment"
	"repro/internal/sched"
	"repro/internal/topology"
)

func main() {
	var (
		exp          = flag.String("exp", "all", experiment.ExpUsage())
		full         = flag.Bool("full", false, "paper-scale configuration (16384^2, 100 iterations, 192 cores; overrides -rows/-cols/-iters/-cores)")
		jsonF        = flag.Bool("json", false, "emit one machine-readable JSON report on stdout (rows, cycle counts, ordering verdicts); exit non-zero on any ordering violation")
		seed         = flag.Int64("seed", experiment.Reduced.Seed, "simulated OS scheduler seed")
		rows         = flag.Int("rows", experiment.Reduced.Rows, "matrix rows (reduced scale)")
		cols         = flag.Int("cols", experiment.Reduced.Cols, "matrix columns (reduced scale)")
		iters        = flag.Int("iters", experiment.Reduced.Iters, "iterations (reduced scale)")
		cores        = flag.Int("cores", experiment.Reduced.Cores, "number of cores (reduced scale)")
		faultKill    = flag.String("fault-kill", "", "comma-separated \"node@epoch\" node kills for -exp fault (any fault flag overrides the default correlated failure)")
		faultDegrade = flag.String("fault-degrade", "", "comma-separated \"level:link:factor@epoch\" fabric-link degrades for -exp fault")
		faultSever   = flag.String("fault-sever", "", "comma-separated \"level:link@epoch\" fabric-link severs for -exp fault")
		schedJobs    = flag.Int("sched-jobs", 0, "jobs per stream for -exp sched (0 = experiment default)")
		schedChurn   = flag.Float64("sched-churn", 0, "arrival-rate churn factor for -exp sched (0 = experiment default)")
		schedConstr  = flag.Float64("sched-constraints", 0, "fraction of jobs carrying topology constraints for -exp sched (0 = experiment default)")
		schedFit     = flag.String("sched-fit", "", "domain scoring rule for -exp sched: best or worst (empty = best)")
		schedQueue   = flag.String("sched-queue", "", "required-tier-full policy for -exp sched: wait or reject (empty = wait)")
		sched2Prio   = flag.Int("sched2-priorities", 0, "priority-class count of the -exp sched2 stream (0 = experiment default)")
		sched2Defrag = flag.Float64("sched2-defrag-threshold", 0, "fragmentation weight in [0,1] arming the -exp sched2 full arm's defragmentation (0 = always armed)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
	cfg, err := buildConfig(*rows, *cols, *iters, *cores, *seed, *full)
	if err != nil {
		fail(err)
	}
	var o experiment.Overrides
	if o.FaultEvents, err = parseFaultEvents(*faultKill, *faultDegrade, *faultSever); err != nil {
		fail(err)
	}
	if err = buildSchedOverrides(&o, *schedJobs, *schedChurn, *schedConstr, *schedFit, *schedQueue); err != nil {
		fail(err)
	}
	if err = buildSched2Overrides(&o, *sched2Prio, *sched2Defrag); err != nil {
		fail(err)
	}
	if err := run(os.Stdout, cfg, o, *exp, *jsonF); err != nil {
		fail(err)
	}
}

// buildSched2Overrides validates the -sched2-* flag values and stores them
// in the override set; the experiment re-validates the assembled
// configuration.
func buildSched2Overrides(o *experiment.Overrides, priorities int, defragThreshold float64) error {
	if priorities < 0 || priorities > 100 {
		return fmt.Errorf("-sched2-priorities: class count %d outside [0,100]", priorities)
	}
	if !(defragThreshold >= 0 && defragThreshold <= 1) { // rejects NaN too
		return fmt.Errorf("-sched2-defrag-threshold: weight %v outside [0,1]", defragThreshold)
	}
	o.Sched2Priorities, o.Sched2DefragThreshold = priorities, defragThreshold
	return nil
}

// buildSchedOverrides validates the -sched-* flag values and stores them in
// the override set. The numeric knobs only enforce the flag-layer contract
// (non-negative; zero = default); the stream generator re-validates the
// assembled configuration.
func buildSchedOverrides(o *experiment.Overrides, jobs int, churn, constraints float64, fit, queue string) error {
	if jobs < 0 {
		return fmt.Errorf("-sched-jobs: job count %d must be non-negative", jobs)
	}
	if churn < 0 {
		return fmt.Errorf("-sched-churn: churn %v must be non-negative", churn)
	}
	if constraints < 0 || constraints > 1 {
		return fmt.Errorf("-sched-constraints: fraction %v outside [0,1]", constraints)
	}
	o.SchedJobs, o.SchedChurn, o.SchedConstraints = jobs, churn, constraints
	o.SchedFit, o.SchedQueue = sched.BestFit, sched.QueueWait
	if fit != "" {
		f, err := sched.ParseFit(fit)
		if err != nil {
			return fmt.Errorf("-sched-fit: %v", err)
		}
		o.SchedFit = f
	}
	if queue != "" {
		q, err := sched.ParseQueuePolicy(queue)
		if err != nil {
			return fmt.Errorf("-sched-queue: %v", err)
		}
		o.SchedQueue = q
	}
	return nil
}

// parseFaultEvents parses the fault-schedule flags into experiment
// coordinates. The flag layer enforces the entry syntax (including the
// 1-based epoch); whether the named nodes, links and epochs exist on the
// built platform — and whether the entries conflict — is checked by the
// fault experiment itself, after the shape is known. All three flags empty
// yields nil, selecting the default failure scenario.
func parseFaultEvents(kill, degrade, sever string) ([]experiment.FaultEventSpec, error) {
	var out []experiment.FaultEventSpec
	for _, entry := range splitList(kill) {
		parts, epoch, err := parseFaultEntry("-fault-kill", entry, 1)
		if err != nil {
			return nil, err
		}
		node, err := strconv.Atoi(parts[0])
		if err != nil {
			return nil, fmt.Errorf("-fault-kill: bad node %q in %q", parts[0], entry)
		}
		out = append(out, experiment.FaultEventSpec{
			Epoch: epoch, Kind: topology.FaultKillNode, Node: node,
		})
	}
	for _, entry := range splitList(degrade) {
		parts, epoch, err := parseFaultEntry("-fault-degrade", entry, 3)
		if err != nil {
			return nil, err
		}
		level, err1 := strconv.Atoi(parts[0])
		link, err2 := strconv.Atoi(parts[1])
		factor, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("-fault-degrade: bad level:link:factor in %q", entry)
		}
		out = append(out, experiment.FaultEventSpec{
			Epoch: epoch, Kind: topology.FaultDegradeEdge, Level: level, Link: link, Factor: factor,
		})
	}
	for _, entry := range splitList(sever) {
		parts, epoch, err := parseFaultEntry("-fault-sever", entry, 2)
		if err != nil {
			return nil, err
		}
		level, err1 := strconv.Atoi(parts[0])
		link, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("-fault-sever: bad level:link in %q", entry)
		}
		out = append(out, experiment.FaultEventSpec{
			Epoch: epoch, Kind: topology.FaultSeverEdge, Level: level, Link: link,
		})
	}
	return out, nil
}

// parseFaultEntry splits one "body@epoch" fault-flag entry into the
// colon-separated body fields (exactly wantParts of them) and the epoch.
func parseFaultEntry(flagName, entry string, wantParts int) ([]string, int, error) {
	body, epochStr, ok := strings.Cut(entry, "@")
	if !ok {
		return nil, 0, fmt.Errorf("%s: entry %q has no @epoch", flagName, entry)
	}
	epoch, err := strconv.Atoi(epochStr)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: bad epoch %q in %q", flagName, epochStr, entry)
	}
	if epoch < 1 {
		return nil, 0, fmt.Errorf("%s: epoch %d in %q is not 1-based", flagName, epoch, entry)
	}
	parts := strings.Split(body, ":")
	if len(parts) != wantParts {
		return nil, 0, fmt.Errorf("%s: entry %q has %d field(s), want %d", flagName, entry, len(parts), wantParts)
	}
	return parts, epoch, nil
}

// splitList splits a comma-separated flag value, trimming whitespace and
// dropping empty items; an empty value yields nil.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// run executes the selected studies and renders them human-readable or as
// the machine-readable JSON report. In JSON mode an ordering violation is
// reported through the error return after the full document is written, so
// a CI consumer archives the evidence and still fails the job.
func run(w io.Writer, cfg experiment.Config, o experiment.Overrides, exp string, asJSON bool) error {
	selected, err := experiment.SelectStudies(exp)
	if err != nil {
		return err
	}
	var report benchReport
	violated := false
	for _, s := range selected {
		rows, err := s.Run(cfg, o)
		if err != nil {
			return fmt.Errorf("%s: %v", s.Name, err)
		}
		if !asJSON {
			fmt.Fprint(w, experiment.FormatAblation(s.Title(), rows))
			fmt.Fprintln(w)
			continue
		}
		res := benchAblation{Exp: s.Name, ID: s.ID, Title: s.Title()}
		for _, r := range rows {
			res.Rows = append(res.Rows, benchRow{
				Name:    r.Name,
				Seconds: simFloat(r.Seconds),
				Cycles:  simFloat(experiment.SimCycles(r.Seconds)),
				Detail:  r.Detail,
			})
		}
		for _, o := range s.Orderings {
			ok := experiment.CheckOrderings(rows, []experiment.Ordering{o}) == nil
			if !ok {
				violated = true
			}
			res.Orderings = append(res.Orderings, benchOrdering{Relation: o.String(), OK: ok})
		}
		report.Ablations = append(report.Ablations, res)
	}
	if asJSON {
		report.Schema = benchSchema
		report.Seed = cfg.Seed
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
		if violated {
			return fmt.Errorf("asserted ablation ordering violated (see the JSON report)")
		}
	}
	return nil
}

// benchSchema versions the JSON document; bump on incompatible changes.
const benchSchema = "repro-bench/2"

// benchReport is the machine-readable bench document of -json mode.
type benchReport struct {
	Schema    string          `json:"schema"`
	Seed      int64           `json:"seed"`
	Ablations []benchAblation `json:"ablations"`
}

// benchAblation is one ablation's rows and ordering verdicts.
type benchAblation struct {
	Exp       string          `json:"exp"`
	ID        string          `json:"id"`
	Title     string          `json:"title"`
	Rows      []benchRow      `json:"rows"`
	Orderings []benchOrdering `json:"orderings,omitempty"`
}

// benchRow is one configuration's simulated cost.
type benchRow struct {
	Name    string   `json:"name"`
	Seconds simFloat `json:"seconds"`
	Cycles  simFloat `json:"cycles"`
	Detail  string   `json:"detail,omitempty"`
}

// simFloat is a simulated figure of a report row. A JSON number cannot carry
// the +Inf of a run that never finishes (a severed fabric that partitions
// the platform), so a non-finite figure encodes as the string "+Inf", "-Inf"
// or "NaN"; a finite one encodes as a plain number.
type simFloat float64

func (f simFloat) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(strconv.FormatFloat(v, 'g', -1, 64))
	}
	return json.Marshal(float64(f))
}

// benchOrdering is one asserted relation and whether it held.
type benchOrdering struct {
	Relation string `json:"relation"`
	OK       bool   `json:"ok"`
}

// buildConfig assembles and validates the ablation configuration from the
// flag values; -full overrides the scale flags with the paper's setup.
func buildConfig(rows, cols, iters, cores int, seed int64, full bool) (experiment.Config, error) {
	cfg := experiment.Config{Rows: rows, Cols: cols, Iters: iters, Cores: cores, Seed: seed}
	if full {
		cfg = experiment.Config{Seed: seed}
	}
	if err := cfg.Validate(); err != nil {
		return experiment.Config{}, err
	}
	return cfg, nil
}
