// Command benchmark is the repository's end-to-end and per-layer benchmark:
// six closed-loop workloads (one client, the next op issued when the previous
// one returns) over the paper path, placement at scale, the fabric runs and
// the online scheduler. README.md describes the workloads and metrics;
// ../BENCHMARK.json declares them.
//
//	go run . -workload lk23-bind -seed 1 -seconds 10 -trace 0   one run, one JSON line
//	go run .                                                    all six, one child each
//	go run . -trace 1                                           plus the traced pass
//	go run . -selfcheck                                         the suite twice, compared
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outDir receives the Chrome traces and the machine-readable results; it is
// relative to the benchmark's own directory, which run.sh and `go run .`
// both use as the working directory.
const outDir = "out"

const (
	defaultSeconds = 10
	defaultWarmup  = 3
	// setupRepeats is how often set-up (inputs + warm-up ops) runs in an
	// untraced run; setup_s is the median.
	setupRepeats = 3
	// minOps is the fewest timed ops a timed run accepts.
	minOps = 5
	// referenceSeed generates the inputs sim_cycles is measured on, whatever
	// -seed says: what an outcome is worth must read the same on every run
	// of a commit. The seeded ops are guarded by result_digest instead.
	referenceSeed = 1
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	// ops, when positive, replaces the time limit by an op count.
	ops    int
	warmup int
	trace  bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runDetail is everything a run measured; the suite collects these into
// out/results.json.
type runDetail struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	Env        hostEnv   `json:"env"`
	Result     result    `json:"result"`
	Digest     string    `json:"result_digest"`
	FirstError string    `json:"first_error,omitempty"`
	SetupS     []float64 `json:"setup_s_samples,omitempty"`
	// OpMs are the timed ops at the host's nominal speed (see calibrate),
	// RawOpMs the same ops as the clock measured them.
	OpMs        []float64          `json:"op_ms_samples"`
	RawOpMs     []float64          `json:"raw_op_ms_samples"`
	TracedOpMs  []float64          `json:"traced_op_ms_samples,omitempty"`
	LayerSelfMs map[string]float64 `json:"layer_self_ms_per_op,omitempty"`
}

func main() {
	var cfg runConfig
	var traceFlag int
	var selfcheck bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in-process and print one JSON line (default: all, one child process each)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the input generators")
	flag.Float64Var(&cfg.seconds, "seconds", defaultSeconds, "seconds of timed ops per run")
	flag.IntVar(&cfg.ops, "ops", 0, "timed ops per run; when positive it replaces -seconds")
	flag.IntVar(&cfg.warmup, "warmup", defaultWarmup, "untimed warm-up ops per set-up")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced pass (per-layer metrics, Chrome trace under out/); 0: end-to-end metrics")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the untraced suite twice and require the two sets to agree")
	flag.Parse()
	if flag.NArg() > 0 || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 || cfg.ops < 0 || cfg.warmup < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1

	var err error
	switch {
	case selfcheck:
		err = runSelfcheck(cfg)
	case cfg.workload == "":
		err = runSuite(cfg)
	default:
		err = runChild(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runChild is one run of one workload in this process: it prints the result
// line, leaves the details under out/, and fails when any op failed.
func runChild(cfg runConfig) error {
	// Never more runnable threads than min(nproc, 4), so numbers from a
	// large host stay comparable; a smaller GOMAXPROCS from the environment
	// is kept (the self-check uses 1).
	runtime.GOMAXPROCS(min(runtime.GOMAXPROCS(0), 4))
	detail, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(detailPath(cfg.workload, cfg.trace), detail); err != nil {
		return err
	}
	line, err := json.Marshal(detail.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !detail.Result.Correct {
		return fmt.Errorf("%s: %d of %d ops failed: %s", cfg.workload, detail.Result.Failed, detail.Result.Attempted, detail.FirstError)
	}
	return nil
}

func detailPath(workload string, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(outDir, fmt.Sprintf("run-%s-trace%d.json", workload, t))
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// opLoop issues ops one after another and keeps the books every run shares:
// attempts, failures, the reference outcome and the per-op wall times.
type opLoop struct {
	w          workload
	ref        *outcome
	attempted  int
	failed     int
	firstError string
	// cal is the calibration that closed the previous op; it opens the next.
	cal float64
}

// The host this benchmark runs on changes speed in phases that last seconds
// (a pure register loop takes 44 ms in one phase and 57 ms in the next), far
// longer than an op and not much shorter than a run, so medians over a run
// do not remove it. Every op is therefore bracketed by a fixed calibration
// loop, and its wall time is scaled by how much slower than calNominalMs the
// two loops ran: times read as milliseconds of a host at nominal speed.
const (
	calIters     = 10_000_000
	calNominalMs = 14.7
)

var calSink uint64

func calibrate() float64 {
	// A collection first: the collector's background workers would
	// otherwise share the core with the loop and slow it, and every op
	// starts from a swept heap.
	runtime.GC()
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < calIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calSink += x
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// do runs one op (traced when tr is non-nil) and returns its wall time in
// milliseconds, as measured (raw) and at the host's nominal speed (ms); ok is
// false when the op failed a check.
func (l *opLoop) do(tr *tracer) (ms, raw float64, ok bool) {
	l.attempted++
	before := l.cal
	if before == 0 {
		before = calibrate()
	}
	endOp, first := noop, 0
	if tr != nil {
		tr.op++
		first = len(tr.spans)
		endOp = tr.span("op")
	}
	start := time.Now()
	out, err := l.w.op(tr)
	raw = float64(time.Since(start).Nanoseconds()) / 1e6
	endOp()
	l.cal = calibrate()
	scale := 2 * calNominalMs / (before + l.cal)
	ms = raw * scale
	if tr != nil {
		tr.setScale(first, scale)
	}
	switch {
	case err != nil:
	case l.ref == nil:
		if out.price != nil {
			out.price(&out)
		}
		l.ref = &out
	case out.digest != l.ref.digest:
		err = errors.New("result_digest differs from the run's first op")
	}
	if err != nil {
		l.failed++
		if l.firstError == "" {
			l.firstError = err.Error()
		}
		return ms, raw, false
	}
	return ms, raw, true
}

// runWorkload measures one workload: set-up, warm-up, timed ops with tracing
// off — and, in a traced run, traced ops interleaved with untraced ones plus
// the layer replays.
func runWorkload(cfg runConfig) (*runDetail, error) {
	info, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	detail := &runDetail{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Env: readHostEnv()}
	var tr *tracer
	repeats := setupRepeats
	if cfg.trace {
		tr = newTracer()
		repeats = 1
	}
	if cfg.ops > 0 {
		repeats = 1
	}

	// Set-up: inputs from the seed, then the warm-up ops, so that work
	// moved into a lazily filled cache shows in setup_s.
	var loop *opLoop
	for r := 0; r < repeats; r++ {
		before := calibrate()
		start := time.Now()
		loop = &opLoop{w: info.make()}
		if err := loop.w.setup(cfg.seed, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		for i := 0; i < cfg.warmup; i++ {
			if _, _, ok := loop.do(nil); !ok {
				return nil, fmt.Errorf("%s: warm-up op: %s", cfg.workload, loop.firstError)
			}
		}
		raw := time.Since(start).Seconds()
		detail.SetupS = append(detail.SetupS, raw*2*calNominalMs/(before+calibrate()))
	}
	loop.attempted = 0

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; ; i++ {
		if cfg.ops > 0 {
			if i >= cfg.ops {
				break
			}
		} else if time.Since(start).Seconds() >= cfg.seconds && len(detail.OpMs) >= minOps {
			break
		}
		if ms, raw, ok := loop.do(nil); ok {
			detail.OpMs = append(detail.OpMs, ms)
			detail.RawOpMs = append(detail.RawOpMs, raw)
		}
		if cfg.trace {
			if ms, _, ok := loop.do(tr); ok {
				detail.TracedOpMs = append(detail.TracedOpMs, ms)
			}
		}
		if loop.failed > 0 && len(detail.OpMs) == 0 {
			break // nothing works; do not burn the time limit
		}
	}
	runtime.ReadMemStats(&after)

	detail.FirstError = loop.firstError
	detail.Result = result{
		Correct:   loop.failed == 0 && len(detail.OpMs) > 0,
		Attempted: loop.attempted,
		Failed:    loop.failed,
		Metrics:   map[string]metricValue{},
	}
	if loop.ref != nil {
		detail.Digest = hex.EncodeToString(loop.ref.digest[:])
	}
	defs, values := endToEnd, map[string]float64{}
	switch {
	case cfg.trace:
		defs = perLayer
		if detail.Result.Correct {
			tr.op = -1
			if err := loop.w.replay(tr); err != nil {
				return nil, fmt.Errorf("%s: replay: %w", cfg.workload, err)
			}
			layerValues(values, info, tr, loop.ref, detail, &before, &after)
			detail.LayerSelfMs = tr.layerSelfMs(len(detail.TracedOpMs))
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return nil, err
			}
			if err := tr.writeChromeTrace(filepath.Join(outDir, "trace-"+cfg.workload+".json"), cfg.workload); err != nil {
				return nil, err
			}
		}
	case len(detail.OpMs) > 0:
		// Before the reference op below, which is not part of the run.
		values["peak_rss_mb"] = peakRSSMB()
		sim, err := referenceSimCycles(info, cfg.seed, loop.ref)
		if err != nil {
			return nil, err
		}
		var totalMs float64
		for _, ms := range detail.OpMs {
			totalMs += ms
		}
		values["setup_s"] = median(detail.SetupS)
		values["op_ms_p50"] = median(detail.OpMs)
		values["op_ms_p75"] = quantile(detail.OpMs, 0.75)
		values["work_per_s"] = info.work * float64(len(detail.OpMs)) / (totalMs / 1e3)
		values["alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20) / float64(loop.attempted)
		values["sim_cycles"] = sim
	}
	for _, d := range defs {
		detail.Result.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return detail, nil
}

// referenceSimCycles is the worth of one op on the reference inputs; ref is
// the run's own first outcome, which already is that when the seeds agree.
func referenceSimCycles(info workloadInfo, seed int64, ref *outcome) (float64, error) {
	if seed == referenceSeed {
		return ref.simCycles, nil
	}
	loop := &opLoop{w: info.make()}
	if err := loop.w.setup(referenceSeed, nil); err != nil {
		return 0, fmt.Errorf("%s: reference set-up: %w", info.name, err)
	}
	if _, _, ok := loop.do(nil); !ok {
		return 0, fmt.Errorf("%s: reference op: %s", info.name, loop.firstError)
	}
	return loop.ref.simCycles, nil
}

// layerValues fills the per-layer metrics of a traced run: span medians,
// exact counts, and the figures derived from them.
func layerValues(v map[string]float64, info workloadInfo, tr *tracer, ref *outcome, detail *runDetail, before, after *runtime.MemStats) {
	for name, val := range tr.spanMetrics() {
		v[name] = val
	}
	for name, val := range ref.counts {
		v[name] = val
	}
	for name, val := range tr.counts {
		v[name] = val
	}
	if v["sched.run_ms"] > 0 {
		v["sched.us_per_job"] = v["sched.run_ms"] * 1e3 / info.work
		// Base: the same stream with backfill, preemption and defrag off.
		if fifo := v["sched.run_fifo_ms"]; fifo > 0 {
			v["sched.probe_overhead_x"] = v["sched.run_ms"] / fifo
		}
	}
	if acq := v["orwl.acquires"]; acq > 0 {
		v["orwl.run_ns_per_acquire"] = v["orwl.run_ms"] * 1e6 / acq
	}
	if plain := v["trace.plain_run_ms"]; plain > 0 {
		v["trace.record_overhead_pct"] = (v["trace.recorded_run_ms"] - plain) / plain * 100
	}
	if seq := v["placement.assign_seq_ms"]; seq > 0 {
		v["placement.self_ms"] = seq - v["treematch.partition_stencil_ms"] - v["treematch.partition_random_ms"] -
			v["comm.submatrix_ms"] - v["treematch.node_map_ms"]
	}

	ops := float64(detail.Result.Attempted)
	v["host.mallocs_per_op"] = float64(after.Mallocs-before.Mallocs) / ops
	v["host.gc_cycles"] = float64(after.NumGC - before.NumGC)
	v["host.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	if base := median(detail.OpMs); base > 0 && len(detail.TracedOpMs) > 0 {
		v["bench.trace_overhead_pct"] = (median(detail.TracedOpMs) - base) / base * 100
	}
	// Share of the traced ops' wall time that their stage spans cover.
	var opNs, stageNs int64
	for _, s := range tr.spans {
		switch {
		case s.Op < 0:
		case s.Parent < 0:
			opNs += s.EndNs - s.StartNs
		case tr.spans[s.Parent].Parent < 0:
			stageNs += s.EndNs - s.StartNs
		}
	}
	if opNs > 0 {
		v["bench.span_coverage_pct"] = float64(stageNs) / float64(opNs) * 100
	}
}
