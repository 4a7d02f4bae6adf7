package orwl

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/comm"
)

// Epoch machinery: the feedback half of adaptive placement.
//
// The paper's placement pipeline runs once, before execution, from the
// statically predicted affinity matrix. Epochs turn that one-shot decision
// into a loop: every interval iterations the runtime quiesces at a barrier
// spanning all running tasks, hands a snapshot of the *observed*
// communication window to a hook, and lets the hook atomically rebind tasks
// (and re-home their data) before the next epoch starts. Because every task
// is parked at the barrier while the hook runs, re-placement needs no
// locking against the workload — the runtime is momentarily sequential.
//
// Correct quiescing requires that tasks hold no lock grants when they call
// EndIteration: a task parked at the barrier while holding a location would
// starve a task that needs that location to reach its own boundary. The
// kernels in this repository therefore call EndIteration after the final
// release of each iteration, and every task of an epoch-enabled program
// must call EndIteration once per iteration.

// epochState is the barrier and bookkeeping shared by all tasks of an
// epoch-enabled runtime.
type epochState struct {
	interval int
	hook     func(*Epoch)

	mu      sync.Mutex
	cond    *sync.Cond
	active  int     // tasks started and not yet returned
	arrived []*Task // tasks parked at the barrier
	gen     int64   // incremented when a barrier opens
	index   int     // completed epochs
}

// ConfigureEpochs enables epoch boundaries: every interval iterations all
// running tasks quiesce at a barrier, the runtime snapshots (and rolls) the
// windowed measured communication matrix, and hook — when non-nil — may
// inspect the window and rebind tasks through the Epoch it receives. The
// window resets every epoch (see comm.Window). Must be called before Run.
//
// Epoch-enabled programs must be uniform: every task calls EndIteration
// once per iteration, holding no lock grants at that point.
func (rt *Runtime) ConfigureEpochs(interval int, hook func(*Epoch)) error {
	if interval < 1 {
		return fmt.Errorf("orwl: epoch interval %d must be at least 1", interval)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.state != stateBuilding {
		return fmt.Errorf("orwl: ConfigureEpochs after the runtime started")
	}
	if rt.epochs != nil {
		// Silently replacing an installed configuration would disconnect
		// whoever installed it (e.g. an adaptive placement engine) without
		// any signal.
		return fmt.Errorf("orwl: epochs already configured")
	}
	es := &epochState{interval: interval, hook: hook}
	es.cond = sync.NewCond(&es.mu)
	rt.epochs = es
	return nil
}

// epochArrive parks the task at the epoch barrier; the last arriving task
// completes the epoch (runs the hook) and releases everyone.
func (rt *Runtime) epochArrive(t *Task) {
	es := rt.epochs
	es.mu.Lock()
	gen := es.gen
	es.arrived = append(es.arrived, t)
	if len(es.arrived) == es.active {
		rt.completeEpochLocked()
	} else {
		for es.gen == gen {
			es.cond.Wait()
		}
	}
	es.mu.Unlock()
}

// epochTaskDone retires a finished task from the barrier; if everyone else
// is already parked, the epoch completes without it.
func (rt *Runtime) epochTaskDone() {
	es := rt.epochs
	if es == nil {
		return
	}
	es.mu.Lock()
	es.active--
	if es.active > 0 && len(es.arrived) == es.active {
		rt.completeEpochLocked()
	}
	es.mu.Unlock()
}

// completeEpochLocked runs one epoch: synchronize the participants' virtual
// clocks (a barrier is not free — nobody leaves before the slowest task
// arrives), roll the communication window, run the hook, open the barrier.
// Called with es.mu held.
func (rt *Runtime) completeEpochLocked() {
	es := rt.epochs
	es.index++
	index := es.index
	tasks := append([]*Task(nil), es.arrived...)
	// es.arrived holds the tasks in real-time barrier-arrival order —
	// scheduler noise. The hook's view must be canonical: any hook that
	// iterates the tasks making cumulative decisions (an evacuation filling
	// survivor slots first-fit, a float-summed score) would otherwise leak
	// goroutine interleaving into placement and pricing.
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].id < tasks[j].id })
	var max float64
	for _, t := range tasks {
		if t.proc != nil && t.proc.Clock() > max {
			max = t.proc.Clock()
		}
	}
	for _, t := range tasks {
		if t.proc != nil {
			t.proc.AdvanceTo(max)
		}
	}
	// Every running task is parked under es.mu and every other one has
	// returned, so their traffic counters are quiescent.
	var window *comm.Matrix
	if w := rt.feedWindow(); w != nil {
		window = w.Roll()
	}
	if es.hook != nil {
		ep := &Epoch{rt: rt, index: index, tasks: tasks, window: window}
		es.hook(ep)
		ep.closed = true
	}
	es.arrived = es.arrived[:0]
	es.gen++
	es.cond.Broadcast()
}

// Epoch is the quiesced view of the runtime handed to the epoch hook. All
// tasks are parked at the barrier for as long as the hook runs, so the
// rebinding methods need no further synchronization; the Epoch must not be
// retained after the hook returns.
type Epoch struct {
	rt     *Runtime
	index  int
	tasks  []*Task
	window *comm.Matrix
	closed bool
}

// Index returns the 1-based number of this epoch.
func (e *Epoch) Index() int { return e.index }

// Tasks returns the tasks parked at this epoch's barrier (tasks that
// already returned are absent).
func (e *Epoch) Tasks() []*Task { return append([]*Task(nil), e.tasks...) }

// Window returns the windowed measured communication matrix accumulated
// since the previous epoch, or nil when the runtime has no machine attached.
func (e *Epoch) Window() *comm.Matrix { return e.window }

// check validates that the epoch is still open and the PU in range.
func (e *Epoch) check(t *Task, pu int, allowUnbound bool) error {
	if e.closed {
		return fmt.Errorf("orwl: Epoch used after its hook returned")
	}
	if t.rt != e.rt {
		return fmt.Errorf("orwl: %s belongs to a different runtime", t)
	}
	if pu < 0 && !allowUnbound {
		return fmt.Errorf("orwl: rebinding %s to the OS scheduler is not supported; re-placement pins", t)
	}
	if e.rt.mach != nil && pu >= e.rt.mach.Topology().NumPUs() {
		return fmt.Errorf("orwl: PU %d out of range", pu)
	}
	return nil
}

// Rebind moves the task's computation thread to the given PU mid-run,
// paying the full price of adaptivity: the migration penalty, cold caches,
// and one re-homing pull for every region the task writes (its data follows
// it, as the initial placement homed it next to the task). This is the
// mid-run counterpart of Runtime.Bind, available only while the runtime is
// quiesced at an epoch boundary.
func (e *Epoch) Rebind(t *Task, pu int) error {
	return e.rebind(t, pu, true)
}

// RebindFree is Rebind without any cost: the oracle variant, used to bound
// what an adaptive engine could gain if migration were free.
func (e *Epoch) RebindFree(t *Task, pu int) error {
	return e.rebind(t, pu, false)
}

func (e *Epoch) rebind(t *Task, pu int, charged bool) error {
	if err := e.check(t, pu, false); err != nil {
		return err
	}
	if t.proc == nil {
		t.pu = pu
		return nil
	}
	if charged {
		if err := t.proc.MigrateTo(pu); err != nil {
			return err
		}
	} else if err := t.proc.PlaceAt(pu); err != nil {
		return err
	}
	t.pu = pu
	for _, h := range t.handles {
		if h.mode != Write || h.loc.region == nil {
			continue
		}
		if charged {
			if err := t.proc.MigrateRegion(h.loc.region); err != nil {
				return err
			}
		} else if err := h.loc.region.MoveTo(e.rt.mach.NodeOfPU(pu)); err != nil {
			return err
		}
	}
	return nil
}

// RebindControl moves the task's control thread to the given PU (-1 releases
// it to the OS). Control threads carry no working set, so the move itself is
// free; its effect is the changed per-transition cost (see
// Task.chargeControlEvent).
func (e *Epoch) RebindControl(t *Task, pu int) error {
	if err := e.check(t, pu, true); err != nil {
		return err
	}
	t.ctlPU = pu
	return nil
}
