package treematch

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/comm"
)

// ControlStrategy records how the control threads of the ORWL runtime were
// handled by the mapping, mirroring the three cases of the paper's
// Algorithm 1 (line 1 and the surrounding discussion).
type ControlStrategy int

const (
	// ControlHyperthread: the machine has SMT, so on every physical core one
	// hyperthread is reserved for the computation thread and the other for
	// its control thread.
	ControlHyperthread ControlStrategy = iota
	// ControlSpareCores: no SMT but more cores than tasks; the matrix was
	// extended with control-thread entities so they land on spare cores
	// close to their computation thread.
	ControlSpareCores
	// ControlUnmapped: neither hyperthreads nor spare cores are available;
	// control threads are left to the operating system scheduler.
	ControlUnmapped
)

// String names the strategy.
func (c ControlStrategy) String() string {
	switch c {
	case ControlHyperthread:
		return "hyperthread"
	case ControlSpareCores:
		return "spare-cores"
	case ControlUnmapped:
		return "unmapped"
	default:
		return fmt.Sprintf("ControlStrategy(%d)", int(c))
	}
}

// Target describes the computing resources the mapping aims at: the abstract
// tree whose leaves are physical cores, and the number of hardware threads
// per core (1 when the machine has no SMT).
type Target struct {
	Tree    *Tree
	SMTWays int
}

// Result is the complete output of Algorithm 1 for an ORWL application with
// one control thread per computation task.
type Result struct {
	// Mapping of the computation tasks to cores (leaves of Target.Tree).
	*Mapping
	// Control maps each task to the core where its control thread is bound,
	// or -1 when the control thread is left to the OS. With the
	// ControlHyperthread strategy Control[i] == Assignment[i]: the control
	// thread runs on the same core, second hyperthread.
	Control []int
	// Strategy is the control-thread case that applied.
	Strategy ControlStrategy
}

// Map runs the full Algorithm 1 for an ORWL application: it extends the
// communication matrix to account for one control thread per task when the
// resources allow it, manages oversubscription, groups processes by affinity
// level by level, and matches the group hierarchy onto the tree.
//
// m is the task-to-task communication matrix (order = number of computation
// tasks). The returned Result maps both the tasks and their control threads.
//
// The control-thread affinity is modelled as each task's total communication
// volume: the control thread moves exactly the data its task exchanges, so
// binding it close to the task is worth that much volume. This reproduces
// the paper's intent ("control and communication threads of ORWL [are taken]
// into account") without requiring runtime-specific constants.
//
// Map is new(Mapper).Map; a caller that maps many matrices keeps a Mapper.
func Map(target Target, m *comm.Matrix, opt Options) (*Result, error) {
	return new(Mapper).Map(target, m, opt)
}

// Map is the package-level Map in the mapper's working set. The Result
// shares none of it.
func (w *Mapper) Map(target Target, m *comm.Matrix, opt Options) (*Result, error) {
	if target.Tree == nil {
		return nil, fmt.Errorf("treematch: nil target tree")
	}
	if target.SMTWays < 1 {
		return nil, fmt.Errorf("treematch: SMTWays must be >= 1, got %d", target.SMTWays)
	}
	tasks := m.Order()

	// Distribution (paper §II: "cluster threads that share data, and at the
	// same time, distribute threads over NUMA nodes"): with spare capacity,
	// restrict the tree so the mapping spreads groups over the upper
	// levels. Leave room for the control threads when they will be mapped
	// onto spare cores (case 2 below).
	work := target.Tree
	if opt.Distribute && tasks > 0 && tasks < work.Leaves() {
		want := tasks
		if target.SMTWays < 2 && work.Leaves() > tasks {
			want = tasks + min(work.Leaves()-tasks, tasks)
		}
		var err error
		work, err = work.Restrict(want)
		if err != nil {
			return nil, err
		}
	}
	cores := work.Leaves()

	// Case 1: hyperthreading. Map only the computation tasks onto cores;
	// every control thread rides the co-hyperthread of its task's core.
	if target.SMTWays >= 2 {
		mp, err := w.mapMatrix(work, m)
		if err != nil {
			return nil, err
		}
		embedMapping(target.Tree, work, mp)
		ctl := make([]int, tasks)
		copy(ctl, mp.Assignment)
		return &Result{Mapping: mp, Control: ctl, Strategy: ControlHyperthread}, nil
	}

	// Cases 2 and 3 leave the control threads the mapping does not place to
	// the OS (-1).
	ctl := make([]int, tasks)
	for i := range ctl {
		ctl[i] = -1
	}

	// Case 2: spare cores. Extend the matrix with control entities so they
	// are mapped onto the spare cores near their tasks.
	if cores > tasks {
		nCtl := min(cores-tasks, tasks)
		// Give the spare slots to the tasks that communicate the most:
		// their control threads move the most data.
		byVolume := identityIDs(tasks)
		slices.SortStableFunc(byVolume, func(a, b int) int {
			return descending(m.RowVolume(a), m.RowVolume(b))
		})
		ext, err := m.ExtendZero(tasks + nCtl)
		if err != nil {
			return nil, err
		}
		for k, task := range byVolume[:nCtl] {
			// Control entity tasks+k; a row volume that overflowed to +Inf
			// is kept the largest volume AddSym takes.
			ext.AddSym(task, tasks+k, min(m.RowVolume(task), math.MaxFloat64))
		}
		mp, err := w.mapMatrix(work, ext)
		if err != nil {
			return nil, err
		}
		embedMapping(target.Tree, work, mp)
		for k, task := range byVolume[:nCtl] {
			ctl[task] = mp.Assignment[tasks+k]
		}
		mp.Assignment, mp.Slot = mp.Assignment[:tasks], mp.Slot[:tasks]
		return &Result{Mapping: mp, Control: ctl, Strategy: ControlSpareCores}, nil
	}

	// Case 3: nothing left for the control threads; the OS schedules them.
	mp, err := w.mapMatrix(work, m)
	if err != nil {
		return nil, err
	}
	embedMapping(target.Tree, work, mp)
	return &Result{Mapping: mp, Control: ctl, Strategy: ControlUnmapped}, nil
}
