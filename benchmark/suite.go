package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"text/tabwriter"
)

// suiteResults is the machine-readable record of one suite: what
// out/results.json holds.
type suiteResults struct {
	Env  hostEnv      `json:"env"`
	Seed int64        `json:"seed"`
	Runs []*runDetail `json:"runs"`
}

// spawn runs one workload in a child process of this binary and returns the
// details it left under out/. Children run strictly one at a time.
func spawn(cfg runConfig, env ...string) (*runDetail, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(exe,
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-ops", strconv.Itoa(cfg.ops),
		"-warmup", strconv.Itoa(cfg.warmup),
		"-trace", trace)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stderr = os.Stderr
	if _, err := cmd.Output(); err != nil {
		return nil, fmt.Errorf("%s: child: %w", cfg.workload, err)
	}
	buf, err := os.ReadFile(detailPath(cfg.workload, cfg.trace))
	if err != nil {
		return nil, err
	}
	detail := &runDetail{}
	if err := json.Unmarshal(buf, detail); err != nil {
		return nil, fmt.Errorf("%s: child details: %w", cfg.workload, err)
	}
	return detail, nil
}

// collect runs every workload once (plus the traced pass when asked).
func collect(cfg runConfig) (*suiteResults, error) {
	res := &suiteResults{Seed: cfg.seed}
	for _, w := range workloads {
		passes := []bool{false}
		if cfg.trace {
			passes = append(passes, true)
		}
		for _, traced := range passes {
			c := cfg
			c.workload, c.trace = w.name, traced
			fmt.Fprintf(os.Stderr, "benchmark: %s (trace %v) ...\n", w.name, traced)
			detail, err := spawn(c)
			if err != nil {
				return nil, err
			}
			res.Runs = append(res.Runs, detail)
		}
	}
	res.Env = res.Runs[0].Env // as the children saw it, GOMAXPROCS cap included
	return res, nil
}

func runSuite(cfg runConfig) error {
	res, err := collect(cfg)
	if err != nil {
		return err
	}
	printEnv(res.Env, cfg.seed)
	printTable(res, false)
	if cfg.trace {
		printTable(res, true)
	}
	return writeJSON(filepath.Join(outDir, "results.json"), res)
}

func printEnv(env hostEnv, seed int64) {
	fmt.Printf("commit %s  seed %d  nproc %d  GOMAXPROCS %d  %s  %s\n\n",
		env.Commit, seed, env.NProc, env.GOMAXPROCS, env.GoVersion, env.CPUModel)
}

// printTable prints one row per metric and one column per workload.
func printTable(res *suiteResults, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	var runs []*runDetail
	for _, r := range res.Runs {
		if r.Trace == traced {
			runs = append(runs, r)
			fmt.Fprintf(tw, "%s\t", r.Workload)
		}
	}
	fmt.Fprintln(tw)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%s\t", d.Name, d.Unit)
		for _, r := range runs {
			fmt.Fprintf(tw, "%s\t", formatValue(r.Result.Metrics[d.Name].Value))
		}
		fmt.Fprintln(tw)
	}
	if !traced {
		fmt.Fprint(tw, "fail_ratio\tfailed/attempted\t")
		for _, r := range runs {
			fmt.Fprintf(tw, "%d/%d\t", r.Result.Failed, r.Result.Attempted)
		}
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "work unit\t\t")
		for _, r := range runs {
			info, _ := findWorkload(r.Workload)
			fmt.Fprintf(tw, "%s\t", info.unit)
		}
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "timed ops\tcount\t")
		for _, r := range runs {
			fmt.Fprintf(tw, "%d\t", len(r.OpMs))
		}
		fmt.Fprintln(tw)
		fmt.Fprint(tw, "result_digest\tsha256[:12]\t")
		for _, r := range runs {
			fmt.Fprintf(tw, "%.12s\t", r.Digest)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	fmt.Println()
}

func formatValue(v float64) string {
	switch a := math.Abs(v); {
	case v == 0:
		return "0"
	case a >= 1e7:
		return strconv.FormatFloat(v, 'e', 5, 64)
	case a >= 100:
		return strconv.FormatFloat(v, 'f', 1, 64)
	default:
		return strconv.FormatFloat(v, 'g', 4, 64)
	}
}

// runSelfcheck runs the untraced suite twice back to back and requires the
// two sets to agree: every bounded metric within its bound, sim_cycles and
// result_digest identical, and the digest unchanged at GOMAXPROCS=1.
func runSelfcheck(cfg runConfig) error {
	cfg.trace = false
	var sets [2]*suiteResults
	for i := range sets {
		var err error
		if sets[i], err = collect(cfg); err != nil {
			return err
		}
	}
	printEnv(sets[0].Env, cfg.seed)
	bad := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tfirst\tsecond\tdiff\tbound\t\t")
	for i, a := range sets[0].Runs {
		b := sets[1].Runs[i]
		for _, d := range endToEnd {
			x, y := a.Result.Metrics[d.Name].Value, b.Result.Metrics[d.Name].Value
			diff := math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
			bound := d.Bound
			if d.Name == "sim_cycles" {
				bound = 0 // same seed, same commit: exact
			}
			verdict := "ok"
			if diff > bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.2f%%\t%.0f%%\t%s\t\n",
				a.Workload, d.Name, formatValue(x), formatValue(y), diff*100, bound*100, verdict)
		}
		verdict := "ok"
		if a.Digest != b.Digest || a.Result.Failed+b.Result.Failed > 0 {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Fprintf(tw, "%s\tresult_digest\t%.12s\t%.12s\t\t\t%s\t\n", a.Workload, a.Digest, b.Digest, verdict)

		one := cfg
		one.workload, one.ops, one.warmup = a.Workload, 1, 0
		single, err := spawn(one, "GOMAXPROCS=1")
		if err != nil {
			return err
		}
		verdict = "ok"
		if single.Digest != a.Digest {
			verdict = "DISAGREE"
			bad++
		}
		fmt.Fprintf(tw, "%s\tresult_digest@GOMAXPROCS=1\t%.12s\t%.12s\t\t\t%s\t\n", a.Workload, a.Digest, single.Digest, verdict)
	}
	tw.Flush()
	if err := writeJSON(filepath.Join(outDir, "selfcheck.json"), sets); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", bad)
	}
	fmt.Println("\nselfcheck: the two sets agree")
	return nil
}
