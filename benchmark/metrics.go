package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json lists exactly these.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees, per workload. Bound is
// the share of the parent's median by which the metric may worsen before a
// change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.20},
	{"op_ms_p75", "ms", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.20},
	{"alloc_mb_per_op", "MB", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.25},
	// Exact in effect: the value is a pure function of the commit.
	{"sim_cycles", "cycles", "lower", 1e-9},
}

// perLayer are the metrics of single layers, from the traced pass: spans
// around the calls an op makes, layer replays, and exact counts. A metric a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "topology.from_spec_us", Unit: "us", Better: "lower"},
	{Name: "topology.platform_parse_us", Unit: "us", Better: "lower"},
	{Name: "topology.route_ns", Unit: "ns", Better: "lower"},
	{Name: "numasim.new_us", Unit: "us", Better: "lower"},
	{Name: "numasim.transfer_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "numasim.mem_read_ns", Unit: "ns", Better: "lower"},
	{Name: "numasim.migration_cost_ns", Unit: "ns", Better: "lower"},
	{Name: "numasim.sim_compute_cycles", Unit: "cycles", Better: "lower"},
	{Name: "numasim.sim_memory_cycles", Unit: "cycles", Better: "lower"},
	{Name: "numasim.sim_transfer_cycles", Unit: "cycles", Better: "lower"},
	{Name: "numasim.sim_wait_cycles", Unit: "cycles", Better: "lower"},
	{Name: "numasim.sim_bytes_moved", Unit: "bytes", Better: "lower"},
	{Name: "numasim.sim_migrations", Unit: "count", Better: "lower"},
	{Name: "comm.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.submatrix_ms", Unit: "ms", Better: "lower"},
	{Name: "comm.nnz", Unit: "count", Better: "lower"},
	{Name: "kernels.build_ms", Unit: "ms", Better: "lower"},
	{Name: "orwl.comm_matrix_ms", Unit: "ms", Better: "lower"},
	{Name: "orwl.run_ms", Unit: "ms", Better: "lower"},
	{Name: "orwl.acquires", Unit: "count", Better: "lower"},
	{Name: "orwl.run_ns_per_acquire", Unit: "ns", Better: "lower"},
	{Name: "orwl.handoff_ns", Unit: "ns", Better: "lower"},
	{Name: "treematch.map_ms", Unit: "ms", Better: "lower"},
	{Name: "treematch.partition_stencil_ms", Unit: "ms", Better: "lower"},
	{Name: "treematch.partition_random_ms", Unit: "ms", Better: "lower"},
	{Name: "treematch.node_map_ms", Unit: "ms", Better: "lower"},
	{Name: "treematch.fabric_match_ms", Unit: "ms", Better: "lower"},
	{Name: "treematch.cut_fraction", Unit: "ratio", Better: "lower"},
	{Name: "placement.assign_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.assign_seq_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.self_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.apply_us", Unit: "us", Better: "lower"},
	{Name: "placement.fabric_contention_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.mapping_cost_ms", Unit: "ms", Better: "lower"},
	{Name: "placement.free_slots_assign_us", Unit: "us", Better: "lower"},
	{Name: "sched.gen_stream_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.new_us", Unit: "us", Better: "lower"},
	{Name: "sched.run_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.us_per_job", Unit: "us", Better: "lower"},
	{Name: "sched.run_blind_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.run_fifo_ms", Unit: "ms", Better: "lower"},
	{Name: "sched.probe_overhead_x", Unit: "x", Better: "lower"},
	{Name: "sched.capacity_bind_release_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.capacity_free_slots_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.backfills", Unit: "count", Better: "higher"},
	{Name: "sched.preemptions", Unit: "count", Better: "higher"},
	{Name: "sched.defrag_moves", Unit: "count", Better: "higher"},
	{Name: "sched.rejected", Unit: "count", Better: "lower"},
	{Name: "sched.wait_cycles", Unit: "cycles", Better: "lower"},
	{Name: "sched.utilization", Unit: "ratio", Better: "higher"},
	{Name: "sched.fragmentation", Unit: "ratio", Better: "lower"},
	{Name: "sched.avg_spread", Unit: "nodes", Better: "lower"},
	{Name: "experiment.run_torus_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.run_rack_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.run_hetero_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.torus_place_ms", Unit: "ms", Better: "lower"},
	{Name: "experiment.platform_ms", Unit: "ms", Better: "lower"},
	{Name: "omp.lk23_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.record_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "host.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "host.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "host.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.span_coverage_pct", Unit: "%", Better: "higher"},
}

// quantile is the linear-interpolated q-quantile of the values (q in [0,1]).
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// hostEnv describes the machine a result was measured on, so numbers are
// only ever compared on like machines.
type hostEnv struct {
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func readHostEnv() hostEnv {
	env := hostEnv{
		NProc:      runtime.NumCPU(),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// Best effort: the benchmark also runs from exported trees without git.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	return env
}

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
