package orwl

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/numasim"
)

// Options configures a Runtime. The zero value runs tasks as plain
// goroutines with no virtual-time accounting.
type Options struct {
	// Machine attaches a simulated NUMA machine: tasks get virtual clocks,
	// lock handoffs and memory accesses are priced, and MakespanSeconds
	// reports the simulated execution time.
	Machine *numasim.Machine
	// Seed drives the simulated OS scheduler for unbound tasks.
	Seed int64
	// Trace, when non-nil, receives one event per acquire/release.
	Trace func(TraceEvent)
}

// TraceEvent describes one lock transition for tracing/visualization.
type TraceEvent struct {
	Task     *Task
	Location *Location
	// Op is "acquire" or "release".
	Op string
	// Clock is the task's virtual time in cycles (0 without a machine).
	Clock float64
}

// migrationProbability is the chance that the simulated OS migrates an
// unbound task at each EndIteration.
const migrationProbability = 0.25

// controlEventCycles is the base cost of one lock transition handled by a
// task's control thread (scaled by the control thread's distance; see
// Task.chargeControlEvent): 10000 cycles (~4.4 µs at 2.27 GHz), an on-core
// wakeup of the control thread through a shared cache line. The unmapped
// 6× case then models a ~26 µs OS wakeup.
const controlEventCycles = 10_000

type runtimeState int

const (
	stateBuilding runtimeState = iota
	stateRunning
	stateDone
)

// Runtime owns the locations and tasks of one ORWL program and runs them
// with the two-phase protocol: first every task's initial lock requests are
// inserted in a canonical deterministic order, then all tasks start. The
// canonical order plus the ReleaseAndRequest discipline make the iterative
// system deadlock-free (Clauss & Gustedt 2010).
type Runtime struct {
	opts Options
	mach *numasim.Machine

	mu        sync.Mutex
	state     runtimeState
	locations []*Location
	tasks     []*Task

	// grantTap, when non-nil, sees every cross-task grant as it is recorded.
	// Tests set it to feed the differential oracle; nothing else does.
	grantTap func(from, to int, vol float64)

	// epochs, when non-nil, holds the barrier state of ConfigureEpochs.
	epochs *epochState

	wallTime time.Duration
}

// NewRuntime creates an empty runtime.
func NewRuntime(opts Options) *Runtime {
	return &Runtime{opts: opts, mach: opts.Machine}
}

// Machine returns the attached simulated machine, or nil.
func (rt *Runtime) Machine() *numasim.Machine { return rt.mach }

// NewLocation creates a location whose backing memory follows the
// first-touch policy: it ends up on the NUMA node of the first task that
// accesses it, exactly like the C library's location buffers. A negative
// size panics, as a call after the runtime started does.
func (rt *Runtime) NewLocation(name string, sizeBytes int64) *Location {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateBuilding {
		panic("orwl: NewLocation after the runtime started")
	}
	if sizeBytes < 0 {
		panic(fmt.Sprintf("orwl: location %q has size %d, want ≥ 0", name, sizeBytes))
	}
	l := &Location{rt: rt, id: len(rt.locations), name: name, size: sizeBytes, frontierPU: -1, frontierTask: -1}
	if rt.mach != nil {
		l.region = rt.mach.AllocFirstTouch(name, sizeBytes)
	}
	rt.locations = append(rt.locations, l)
	return l
}

// AddTask registers a task. Tasks are identified and canonically ordered by
// their creation index.
func (rt *Runtime) AddTask(name string, fn TaskFunc) *Task {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateBuilding {
		panic("orwl: AddTask after the runtime started")
	}
	t := &Task{rt: rt, id: len(rt.tasks), name: name, fn: fn, pu: -1, ctlPU: -1, wake: make(chan struct{}, 1)}
	rt.tasks = append(rt.tasks, t)
	return t
}

// Tasks returns the registered tasks in creation order.
func (rt *Runtime) Tasks() []*Task {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*Task(nil), rt.tasks...)
}

// Locations returns the registered locations in creation order.
func (rt *Runtime) Locations() []*Location {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*Location(nil), rt.locations...)
}

// Bind pins a task's computation thread to a PU (the effect of the paper's
// placement module). Must be called before Run; pass -1 to leave the task
// to the simulated OS scheduler (the NoBind configuration). Any other PU
// outside the attached machine, or below -1, is an error.
func (rt *Runtime) Bind(t *Task, pu int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateBuilding {
		return fmt.Errorf("orwl: Bind after the runtime started")
	}
	if pu < -1 || rt.mach != nil && pu >= rt.mach.Topology().NumPUs() {
		return fmt.Errorf("orwl: PU %d out of range for %s", pu, t)
	}
	t.pu = pu
	return nil
}

// BindControl pins a task's control thread to a PU; -1 leaves it to the OS.
// It rejects the same PUs as Bind.
func (rt *Runtime) BindControl(t *Task, pu int) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateBuilding {
		return fmt.Errorf("orwl: BindControl after the runtime started")
	}
	if pu < -1 || rt.mach != nil && pu >= rt.mach.Topology().NumPUs() {
		return fmt.Errorf("orwl: PU %d out of range for %s", pu, t)
	}
	t.ctlPU = pu
	return nil
}

// Run executes the program: phase 1 inserts every handle's initial request
// in canonical (rank, task ID, handle index) order; phase 2 starts one
// goroutine per task and waits for all of them. It returns the joined
// errors of all failing tasks, or an error if any handle is still held or
// queued when its task returns.
func (rt *Runtime) Run() error {
	rt.mu.Lock()
	if rt.state != stateBuilding {
		rt.mu.Unlock()
		return fmt.Errorf("orwl: Run called twice")
	}
	rt.state = stateRunning
	tasks := append([]*Task(nil), rt.tasks...)
	if rt.epochs != nil {
		rt.epochs.active = len(tasks)
	}
	rt.mu.Unlock()

	// Create the execution contexts now that bindings are final.
	if rt.mach != nil {
		for _, t := range tasks {
			if t.pu >= 0 {
				p, err := rt.mach.NewProc(t.name, t.pu)
				if err != nil {
					return err
				}
				t.proc = p
			} else {
				t.proc = rt.mach.NewUnboundProc(t.name, rt.opts.Seed+int64(t.id)*7919)
			}
		}
	}

	// Resolve every location's memory home deterministically: on the node
	// of its first writer in canonical task order (falling back to the
	// first reader). This mirrors a topology-aware runtime allocating each
	// location's buffer local to the task that produces its data, and it
	// removes the first-touch race that a read-shared first grant (several
	// readers woken together) would otherwise introduce into the virtual
	// times.
	if rt.mach != nil {
		rt.homeLocations(tasks)
	}

	// Phase 1: canonical initial request insertion. This is the "global
	// initialization following a canonical order" that guarantees liveness:
	// every location's FIFO starts in the same relative order on every run.
	n := 0
	for _, t := range tasks {
		n += len(t.handles)
	}
	initial := make([]*Handle, 0, n)
	for _, t := range tasks {
		initial = append(initial, t.handles...)
	}
	sort.SliceStable(initial, func(a, b int) bool {
		ha, hb := initial[a], initial[b]
		if ha.rank != hb.rank {
			return ha.rank < hb.rank
		}
		if ha.task.id != hb.task.id {
			return ha.task.id < hb.task.id
		}
		return ha.idx < hb.idx
	})
	for _, h := range initial {
		if err := h.Request(); err != nil {
			return fmt.Errorf("orwl: canonical init: %w", err)
		}
	}

	// Phase 2: run all tasks.
	start := time.Now()
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t *Task) {
			defer wg.Done()
			defer rt.epochTaskDone()
			if t.fn != nil {
				errs[i] = t.fn(t)
			}
		}(i, t)
	}
	wg.Wait()

	rt.mu.Lock()
	rt.wallTime = time.Since(start)
	rt.state = stateDone
	rt.mu.Unlock()

	var all []error
	for i, err := range errs {
		if err != nil {
			all = append(all, fmt.Errorf("%s: %w", tasks[i], err))
		}
	}
	// A clean shutdown leaves every handle idle; held or queued handles
	// indicate a protocol bug in the application.
	if len(all) == 0 {
		for _, t := range tasks {
			for _, h := range t.handles {
				if st := h.State(); st == Acquired {
					all = append(all, fmt.Errorf("%s: handle on %q still acquired at exit", t, h.loc.name))
				} else if st == Requested {
					// Drain the leftover request so the queue is clean.
					if err := h.cancelRequest(); err != nil {
						all = append(all, err)
					}
				}
			}
		}
	}
	return errors.Join(all...)
}

// homeLocations moves every still-unhomed location region onto the NUMA
// node of its first writer task (first reader when no task writes it).
func (rt *Runtime) homeLocations(tasks []*Task) {
	rt.mu.Lock()
	locations := append([]*Location(nil), rt.locations...)
	rt.mu.Unlock()
	// Indexed by Location.id.
	owner := make([]*Task, len(locations))
	reader := make([]*Task, len(locations))
	for _, t := range tasks {
		for _, h := range t.handles {
			if h.mode == Write {
				if owner[h.loc.id] == nil {
					owner[h.loc.id] = t
				}
			} else if reader[h.loc.id] == nil {
				reader[h.loc.id] = t
			}
		}
	}
	for _, l := range locations {
		if l.region == nil || l.region.Home() >= 0 {
			continue
		}
		t := owner[l.id]
		if t == nil {
			t = reader[l.id]
		}
		if t == nil || t.proc == nil {
			continue
		}
		// MoveTo cannot fail here: NodeOfPU always returns a valid node.
		_ = l.region.MoveTo(rt.mach.NodeOfPU(t.proc.PU()))
	}
}

// cancelRequest withdraws a queued-but-never-acquired request, used to
// clean up after the final ReleaseAndRequest of an iterative task.
func (h *Handle) cancelRequest() error {
	req := h.req
	if req == nil {
		return nil
	}
	l := h.loc
	l.mu.Lock()
	for i, q := range l.queue {
		if q == req {
			l.queue = append(l.queue[:i], l.queue[i+1:]...)
			break
		}
	}
	l.grantLocked()
	l.mu.Unlock()
	h.req = nil
	h.state = Idle
	return nil
}

// WallTime returns the real time phase 2 took (not the simulated time).
func (rt *Runtime) WallTime() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.wallTime
}

// MakespanCycles returns the maximum virtual clock over all tasks, i.e. the
// simulated parallel execution time in cycles (0 without a machine).
func (rt *Runtime) MakespanCycles() float64 {
	rt.mu.Lock()
	tasks := append([]*Task(nil), rt.tasks...)
	rt.mu.Unlock()
	var procs []*numasim.Proc
	for _, t := range tasks {
		if t.proc != nil {
			procs = append(procs, t.proc)
		}
	}
	return numasim.Makespan(procs)
}

// MakespanSeconds returns the simulated execution time in seconds.
func (rt *Runtime) MakespanSeconds() float64 {
	if rt.mach == nil {
		return 0
	}
	return rt.mach.CyclesToSeconds(rt.MakespanCycles())
}

// CommMatrix extracts the task-to-task affinity matrix from the program
// structure, the paper's "application information gathered from the ORWL
// runtime": two tasks communicate through a location when one writes it and
// the other reads it (or both write it), and the volume attributed to the
// pair is the smaller of the two declared handle volumes.
func (rt *Runtime) CommMatrix() *comm.Matrix {
	rt.mu.Lock()
	tasks := append([]*Task(nil), rt.tasks...)
	locations := append([]*Location(nil), rt.locations...)
	rt.mu.Unlock()

	m := comm.New(len(tasks))
	for _, t := range tasks {
		m.SetLabel(t.id, t.name)
	}
	type endpoint struct {
		task int
		mode Mode
		vol  float64
	}
	// Indexed by Location.id and walked in creation order, so a pair sharing
	// several locations has its volumes summed in the same order every call.
	// Each list is cut from one array at its counted length, then filled.
	byLoc := make([][]endpoint, len(locations))
	count, n := make([]int, len(locations)), 0
	for _, t := range tasks {
		n += len(t.handles)
		for _, h := range t.handles {
			count[h.loc.id]++
		}
	}
	all := make([]endpoint, n)
	for i, c := range count {
		byLoc[i], all = all[:0:c], all[c:]
	}
	for _, t := range tasks {
		for _, h := range t.handles {
			byLoc[h.loc.id] = append(byLoc[h.loc.id], endpoint{t.id, h.mode, h.vol})
		}
	}
	for _, eps := range byLoc {
		for i := 0; i < len(eps); i++ {
			for j := i + 1; j < len(eps); j++ {
				a, b := eps[i], eps[j]
				if a.task == b.task {
					continue
				}
				// Two readers never exchange data with each other; every
				// other combination moves data through the location.
				if a.mode == Read && b.mode == Read {
					continue
				}
				vol := a.vol
				if b.vol < vol {
					vol = b.vol
				}
				m.AddSym(a.task, b.task, vol)
			}
		}
	}
	return m
}

// MeasuredCommMatrix returns the communication matrix actually observed
// during the run: for every lock grant whose protected data was last
// released by a different task, the handle's volume is attributed to that
// (producer, consumer) pair, symmetrically. Where CommMatrix predicts the
// affinity statically from the program structure (the input to the
// placement module), the measured matrix validates the prediction — for an
// iterative program running N steady-state iterations the measured matrix
// converges to N times the per-iteration structural one.
//
// The volumes are counted by each consumer task's own goroutine, unlocked
// (Task.recordComm). This method and the epoch barrier read those counters,
// so call it only when no task can be running: before or after Run, or from
// inside an epoch hook.
func (rt *Runtime) MeasuredCommMatrix() *comm.Matrix { return rt.foldTraffic(false) }

// foldTraffic folds the tasks' traffic counters into a fresh matrix, in
// task-id order, so the result does not depend on how the goroutines
// interleaved: the run-to-date totals, or (roll) what each task consumed
// since the previous roll, which it resets — the epoch's window. Same
// calling condition as MeasuredCommMatrix.
func (rt *Runtime) foldTraffic(roll bool) *comm.Matrix {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	m := comm.New(len(rt.tasks))
	for _, t := range rt.tasks {
		for i := range t.traffic {
			c := &t.traffic[i]
			v := c.total
			if roll {
				v, c.sinceRoll = c.sinceRoll, 0
			}
			if v != 0 {
				m.AddSym(c.from, t.id, v)
			}
		}
	}
	return m
}

// trace dispatches a trace event when a hook is installed.
func (rt *Runtime) trace(t *Task, op string, l *Location) {
	if rt.opts.Trace == nil {
		return
	}
	var clock float64
	if t.proc != nil {
		clock = t.proc.Clock()
	}
	rt.opts.Trace(TraceEvent{Task: t, Location: l, Op: op, Clock: clock})
}
