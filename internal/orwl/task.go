package orwl

import (
	"fmt"
	"math"

	"repro/internal/numasim"
	"repro/internal/topology"
)

// TaskFunc is the body of a task. It runs in its own goroutine once the
// runtime has inserted all initial lock requests. A non-nil error aborts
// the whole run.
type TaskFunc func(t *Task) error

// Task is an ORWL unit of execution: a named function owning an ordered set
// of handles. In the paper's vocabulary every task is executed by one
// computation thread, assisted by a control thread belonging to the runtime
// (handling lock transitions and data movement); the placement module binds
// both kinds of threads.
type Task struct {
	rt      *Runtime
	id      int
	name    string
	fn      TaskFunc
	handles []*Handle

	// pu is the PU the computation thread is bound to; -1 = unbound (the
	// simulated OS places and migrates it).
	pu int
	// ctlPU is the PU the control thread is bound to; -1 = unmapped.
	ctlPU int

	proc *numasim.Proc
	// wake carries a grant to the task while it is parked in Acquire;
	// capacity 1, since the task parks on one handle at a time (see Handle).
	wake chan struct{}

	// iterations completed, maintained by EndIteration (paces the epoch barrier).
	iterations int

	// traffic holds what this task consumed, one counter per producer in
	// first-grant order. Only the task's goroutine writes it (recordComm);
	// the runtime reads it when no task can be running — see
	// Runtime.MeasuredCommMatrix.
	traffic []trafficCounter
}

// trafficCounter accumulates the volume one task was granted out of the
// releases of task from: over the whole run, and since the last epoch
// barrier folded it into a window.
type trafficCounter struct {
	from             int
	total, sinceRoll float64
}

// recordComm accumulates one observed handoff of vol bytes from task `from`
// to t. Called from t's goroutine on every cross-task grant, it touches
// nothing another task writes. A task consumes from a handful of producers,
// so the scan is short.
func (t *Task) recordComm(from int, vol float64) {
	if tap := t.rt.grantTap; tap != nil {
		tap(from, t.id, vol)
	}
	for i := range t.traffic {
		if c := &t.traffic[i]; c.from == from {
			c.total += vol
			c.sinceRoll += vol
			return
		}
	}
	t.traffic = append(t.traffic, trafficCounter{from: from, total: vol, sinceRoll: vol})
}

// ID returns the task's index within its runtime; the canonical
// initialization order follows it.
func (t *Task) ID() int { return t.id }

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Handles returns the task's handles in creation order.
func (t *Task) Handles() []*Handle { return t.handles }

// Handle returns the i-th handle created by the task.
func (t *Task) Handle(i int) *Handle { return t.handles[i] }

// Proc returns the simulated execution context, or nil when the runtime has
// no machine attached. Kernels use it to charge compute and memory costs.
func (t *Task) Proc() *numasim.Proc { return t.proc }

// SetFunc installs the task body. Builders that need the task's handles
// inside the closure create the task first, create the handles, then call
// SetFunc; it must happen before the runtime starts.
func (t *Task) SetFunc(fn TaskFunc) {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.rt.state != stateBuilding {
		panic("orwl: SetFunc after the runtime started")
	}
	t.fn = fn
}

// NewHandle binds the task to a location. The per-iteration volume defaults
// to the location's size and the canonical rank to 0; use NewHandleVol for
// explicit values. Handles must be created before the runtime starts.
func (t *Task) NewHandle(loc *Location, mode Mode) *Handle {
	return t.NewHandleVol(loc, mode, float64(loc.Size()), 0)
}

// NewHandleVol binds the task to a location declaring the volume (bytes
// moved through the handle per iteration, used for affinity extraction and
// transfer costs) and the canonical rank (lower ranks insert their initial
// request earlier on the location's FIFO; ties break by task ID, then by
// handle creation order). A negative or non-finite volume panics, as a call
// after the runtime started does: volumes are bytes.
func (t *Task) NewHandleVol(loc *Location, mode Mode, vol float64, rank int) *Handle {
	t.rt.mu.Lock()
	defer t.rt.mu.Unlock()
	if t.rt.state != stateBuilding {
		panic("orwl: NewHandle after the runtime started")
	}
	if !(vol >= 0) || math.IsInf(vol, 1) {
		panic(fmt.Sprintf("orwl: %s declares volume %v on %q, want a finite volume ≥ 0", t, vol, loc.name))
	}
	h := &Handle{task: t, loc: loc, mode: mode, vol: vol, rank: rank, idx: int32(len(t.handles))}
	t.handles = append(t.handles, h)
	return h
}

// EndIteration marks an iteration boundary: a scheduling point at which the
// simulated OS may migrate an unbound task (bound tasks never move), and —
// when epochs are enabled (ConfigureEpochs) — the point where the task
// parks at the epoch barrier every epoch-interval iterations. Iterative
// kernels call it once per outer iteration, after releasing every handle of
// the iteration, so that a parked task never starves another task's
// progress toward the same barrier.
func (t *Task) EndIteration() {
	t.iterations++
	if t.proc != nil {
		t.proc.Reschedule(migrationProbability)
	}
	if es := t.rt.epochs; es != nil && t.iterations%es.interval == 0 {
		t.rt.epochArrive(t)
	}
}

// chargeControlEvent prices one lock transition handled by the task's
// control thread. The cost grows with the distance between the computation
// thread and its control thread, which is exactly the effect the paper's
// control-thread placement adaptation targets:
//
//	same core (co-hyperthread)  1×
//	same NUMA node              2×
//	remote node                 4×
//	unmapped (OS-scheduled)     6×
func (t *Task) chargeControlEvent() {
	p := t.proc
	if p == nil {
		return
	}
	mult := 6.0
	if t.ctlPU >= 0 {
		topo := t.rt.mach.Topology()
		taskPU, ctlPU := topo.PU(p.PU()), topo.PU(t.ctlPU)
		switch {
		case taskPU.Ancestor(topology.Core) == ctlPU.Ancestor(topology.Core):
			mult = 1
		case topo.SameNUMANode(taskPU, ctlPU):
			mult = 2
		default:
			mult = 4
		}
	}
	p.ComputeCycles(float64(controlEventCycles * mult))
}

// String renders the task for diagnostics.
func (t *Task) String() string {
	return fmt.Sprintf("task#%d(%s)", t.id, t.name)
}
