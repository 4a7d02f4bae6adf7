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
// The human-readable report follows each study's rows with one
// "violated: <relation>" line per asserted ordering they break, and exits
// 0 all the same. With -json the results are emitted as one
// machine-readable JSON document on stdout — per-ablation rows with
// simulated seconds and cycle counts, plus the asserted orderings and
// their verdicts — and the exit status is non-zero when any asserted
// ordering is violated. The document carries
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

	"repro/internal/experiment"
)

func main() {
	var (
		exp   = flag.String("exp", "all", experiment.ExpUsage())
		full  = flag.Bool("full", false, "paper-scale configuration (16384^2, 100 iterations, 192 cores; overrides -rows/-cols/-iters/-cores)")
		jsonF = flag.Bool("json", false, "emit one machine-readable JSON report on stdout (rows, cycle counts, ordering verdicts); exit non-zero on any ordering violation")
		seed  = flag.Int64("seed", experiment.Reduced.Seed, "simulated OS scheduler seed")
		rows  = flag.Int("rows", experiment.Reduced.Rows, "matrix rows (reduced scale)")
		cols  = flag.Int("cols", experiment.Reduced.Cols, "matrix columns (reduced scale)")
		iters = flag.Int("iters", experiment.Reduced.Iters, "iterations (reduced scale)")
		cores = flag.Int("cores", experiment.Reduced.Cores, "number of cores (reduced scale)")
	)
	flag.Parse()

	cfg, err := buildConfig(*rows, *cols, *iters, *cores, *seed, *full)
	if err == nil {
		err = run(os.Stdout, cfg, *exp, *jsonF)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ablate: %v\n", err)
		os.Exit(1)
	}
}

// run executes the selected studies and renders them human-readable or as
// the machine-readable JSON report. In JSON mode an ordering violation is
// reported through the error return after the full document is written, so
// a CI consumer archives the evidence and still fails the job.
func run(w io.Writer, cfg experiment.Config, exp string, asJSON bool) error {
	selected, err := experiment.SelectStudies(exp)
	if err != nil {
		return err
	}
	var report benchReport
	violated := false
	for _, s := range selected {
		rows, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %v", s.Name, err)
		}
		if !asJSON {
			writeStudy(w, s.Title(), rows, s.Orderings)
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

// writeStudy renders one study's rows human-readable, then one
// "violated: <relation>" line for each asserted ordering the rows break.
func writeStudy(w io.Writer, title string, rows []experiment.AblationRow, orderings []experiment.Ordering) {
	fmt.Fprint(w, experiment.FormatAblation(title, rows))
	for _, o := range orderings {
		if experiment.CheckOrderings(rows, []experiment.Ordering{o}) != nil {
			fmt.Fprintf(w, "violated: %s\n", o)
		}
	}
	fmt.Fprintln(w)
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
