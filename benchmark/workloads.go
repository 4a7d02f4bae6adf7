package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/placement"
	"repro/internal/topology"
)

// outcome is what one op produced: its worth on the machine model, a digest
// of the result (assignment / report / makespan bits), and the exact counts
// the layers report about it.
type outcome struct {
	simCycles float64
	digest    [sha256.Size]byte
	counts    map[string]float64
	// price, when non-nil, computes simCycles and any counts that need a
	// walk over the result. The harness calls it outside the timed section,
	// once per distinct digest.
	price func(o *outcome)
}

// workload is one closed-loop input set: setup builds the inputs from the
// seed, op runs one pass and checks its output, replay calls the lower
// layers' exported functions with the inputs the pipeline would hand them.
// A nil tracer is the untraced pass.
type workload interface {
	setup(seed int64, tr *tracer) error
	op(tr *tracer) (outcome, error)
	replay(tr *tracer) error
}

type workloadInfo struct {
	name string
	// work is the number of work units one op completes; unit names them.
	work float64
	unit string
	why  string
	make func() workload
}

var workloads = []workloadInfo{
	{"lk23-bind", 172800, "task-iterations", "paper pipeline at paper scale under TreeMatch binding: Algorithm 1 and the ORWL/numasim run each do about half the work",
		func() workload { return &lk23{bind: true} }},
	{"lk23-nobind", 172800, "task-iterations", "same program left to the simulated OS scheduler: orwl+numasim with roaming threads, treematch bypassed",
		func() workload { return &lk23{} }},
	{"place-scale", 18100, "tasks placed", "datacenter-tier Hierarchical placement: a stencil half bound by the per-node Algorithm 1 pool, a random half bound by the multilevel partition",
		func() workload { return &placeScale{} }},
	{"fabric-stencil", 3, "fabric runs", "torus, rack and hetero stencil runs: the only workload that prices transfers over routed and tree fabrics",
		func() workload { return &fabricStencil{} }},
	{"sched-fifo", 800, "jobs", "A15 service loop: one AssignFreeSlots per admission, no probes, so it isolates per-job placement cost",
		func() workload { return &schedLoop{} }},
	{"sched-phase2", 80, "jobs", "A16 backfill+preempt+defrag: the earliestStart/defrag/preempt probe loops own the wall time",
		func() workload { return &schedLoop{phase2: true} }},
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}

// digester hashes result fields in a fixed order.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

func (d digester) ints(vs []int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		d.h.Write(b[:])
	}
}

func (d digester) floats(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d digester) sum() (out [sha256.Size]byte) {
	copy(out[:], d.h.Sum(nil))
	return out
}

// checkAssignment verifies that every task was placed exactly once, on a
// valid PU, with no core holding more than the assignment's virtual arity
// (1 unless the tasks oversubscribe the cores) and no cluster node more
// than perNode tasks.
func checkAssignment(topo *topology.Topology, a *placement.Assignment, tasks, perNode int) error {
	if len(a.TaskPU) != tasks {
		return fmt.Errorf("placed %d of %d tasks", len(a.TaskPU), tasks)
	}
	arity := max(a.VirtualArity, 1)
	perPU := make([]int, topo.NumPUs())
	nodeLoad := make([]int, max(topo.NumClusterNodes(), 1))
	for t, pu := range a.TaskPU {
		if pu < 0 || pu >= len(perPU) {
			return fmt.Errorf("task %d on PU %d, outside [0,%d)", t, pu, len(perPU))
		}
		if perPU[pu]++; perPU[pu] > arity {
			return fmt.Errorf("PU %d holds %d tasks, virtual arity is %d", pu, perPU[pu], arity)
		}
		if cn := topo.ClusterNodeOf(topo.PU(pu)); cn != nil {
			if nodeLoad[cn.LevelIndex]++; nodeLoad[cn.LevelIndex] > perNode {
				return fmt.Errorf("cluster node %d holds more than %d tasks", cn.LevelIndex, perNode)
			}
		}
	}
	return nil
}

// transferCycles prices an assignment on the machine model: Σ TransferCost
// over the nonzeros of the matrix.
func transferCycles(mach *numasim.Machine, m *comm.Matrix, taskPU []int) float64 {
	var sum float64
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			sum += mach.TransferCost(taskPU[i], taskPU[j], v)
		})
	}
	return sum
}

// cutFraction is the share of the matrix volume whose two ends sit on
// different cluster nodes (NUMA nodes on a single machine).
func cutFraction(mach *numasim.Machine, m *comm.Matrix, taskPU []int) (cut, total float64) {
	domain := mach.NodeOfPU
	if mach.Topology().NumClusterNodes() > 1 {
		domain = mach.ClusterNodeOfPU
	}
	for i := 0; i < m.Order(); i++ {
		m.ForEachNeighbor(i, func(j int, v float64) {
			total += v
			if domain(taskPU[i]) != domain(taskPU[j]) {
				cut += v
			}
		})
	}
	return cut, total
}
