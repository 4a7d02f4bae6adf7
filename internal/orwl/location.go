// Package orwl implements the Ordered Read-Write Lock programming model of
// Clauss & Gustedt (JPDC 2010), the task-based runtime that the paper
// extends with topology-aware placement.
//
// The model has three core concepts:
//
//   - Location: a shared resource protected by a FIFO of lock requests.
//     A write request is granted exclusively; consecutive read requests at
//     the head of the FIFO are granted together (read-sharing group).
//   - Handle: binds one task to one location in read or write mode, with
//     the lifecycle Request (enqueue) → Acquire (block until granted) →
//     Release (dequeue and grant successors). The iterative primitive
//     ReleaseAndRequest atomically enqueues a fresh request before releasing
//     the held one, so a task keeps its relative position in the cyclic
//     schedule across iterations — ORWL's liveness guarantee relies on it.
//     A lock handoff allocates nothing and takes one lock, the location's:
//     the handle owns its two request records, a grant is a flag the owner
//     reads, and only an owner already parked in Acquire is woken, through
//     its task's one token channel (see Handle).
//   - Task: a unit of execution owning a set of handles; the runtime inserts
//     all initial requests in a canonical deterministic order before any
//     task starts (two-phase initialization), which makes the whole
//     iterative system deadlock-free.
//
// When a Runtime is attached to a numasim.Machine, every lock handoff and
// data access also advances deterministic virtual clocks, so the same
// program yields the simulated execution time of a chosen placement on a
// chosen machine; see docs/ARCHITECTURE.md, "Data flow", step 6.
package orwl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/numasim"
)

// Mode is the access mode of a handle: Read requests can share the lock,
// Write requests are exclusive.
type Mode int

const (
	// Read grants may be shared among adjacent readers in the FIFO.
	Read Mode = iota
	// Write grants are exclusive.
	Write
)

// String returns "read" or "write".
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// request is one entry of a location's FIFO. It lives in one of its handle's
// two slots: every field is written by the owning task while the record is
// outside the FIFO, and by whoever holds l.mu while it is queued — nobody
// else ever sees it, so a slot may be rewritten as soon as remove or
// cancelRequest has taken it out of the FIFO. The owner reads the grant
// fields without l.mu once it has seen granted set (see Handle.Acquire).
type request struct {
	h *Handle
	// Virtual-time information captured at grant time.
	grantClock float64
	mode       Mode
	grantPU    int32
	grantTask  int32 // ID of the last releasing task, -1 if none
	// granted is stored under l.mu after every grant field, so an owner that
	// loads it set reads them complete.
	granted    atomic.Bool
	fromMemory bool // first grant: data comes from the region, not a holder
}

// Location is an ORWL shared resource: a data buffer guarded by a FIFO of
// lock requests. Create locations through Runtime.NewLocation so that they
// participate in placement and in virtual-time accounting.
type Location struct {
	rt   *Runtime
	id   int
	name string
	size int64

	mu    sync.Mutex
	queue []*request
	data  interface{} // the protected payload, owned by the current holder(s)

	// Virtual-time frontier: the simulated time at which the resource was
	// last released, and by which PU. -1 means "still in memory" (no holder
	// yet): the first holder streams it from the region instead.
	frontier   float64
	frontierPU int
	// frontierTask is the ID of the task that last released the location,
	// or -1; it attributes measured communication volumes to task pairs.
	frontierTask int

	region *numasim.Region // nil when the runtime has no machine attached

	// grants counts lock grants, for statistics and tests.
	grants int64
}

// Name returns the location's diagnostic name.
func (l *Location) Name() string { return l.name }

// Size returns the payload size in bytes used for cost accounting.
func (l *Location) Size() int64 { return l.size }

// Region returns the simulated memory region backing the location, or nil
// when the runtime runs without a machine.
func (l *Location) Region() *numasim.Region { return l.region }

// SetData installs the payload protected by the location. It is meant to be
// called during program construction (before Run) or by the task currently
// holding a write grant.
func (l *Location) SetData(v interface{}) {
	l.mu.Lock()
	l.data = v
	l.mu.Unlock()
}

// PeekData returns the payload without holding a lock grant. It is meant
// for reading results after Runtime.Run has returned (when no task holds
// any location); during a run, use Handle.Data from within a critical
// section instead.
func (l *Location) PeekData() interface{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.data
}

// Grants returns the number of lock grants performed so far.
func (l *Location) Grants() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.grants
}

// QueueLen returns the current number of queued (granted or waiting)
// requests, for tests and diagnostics.
func (l *Location) QueueLen() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue)
}

// enqueue appends a request to the FIFO and grants the head group if
// possible. Called with l.mu NOT held.
func (l *Location) enqueue(r *request) {
	l.mu.Lock()
	l.queue = append(l.queue, r)
	l.grantLocked()
	l.mu.Unlock()
}

// remove deletes a granted request from the FIFO and grants successors.
// reinsert, when non-nil, is appended atomically before the removal — the
// ReleaseAndRequest primitive. Called with l.mu NOT held.
//
// releaseClock/releasePU update the virtual-time frontier; pass releasePU =
// -2 to skip virtual-time accounting (no machine attached). releaseTask
// attributes subsequent grants to the releasing task for the measured
// communication matrix.
func (l *Location) remove(r *request, reinsert *request, releaseClock float64, releasePU, releaseTask int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := -1
	for i, q := range l.queue {
		if q == r {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("orwl: release of a request not in the queue of %q", l.name)
	}
	if !r.granted.Load() {
		return fmt.Errorf("orwl: release of a non-granted request on %q", l.name)
	}
	if reinsert != nil {
		l.queue = append(l.queue, reinsert)
	}
	l.queue = append(l.queue[:idx], l.queue[idx+1:]...)
	if releasePU != -2 {
		if releaseClock > l.frontier || l.frontierPU == -1 {
			l.frontier = releaseClock
			l.frontierPU = releasePU
		} else if releaseClock == l.frontier && releasePU < l.frontierPU {
			// Concurrent releases can carry the exact same virtual clock —
			// routine once an epoch barrier has advanced every task to the
			// same time — and real-time arrival order between them is
			// scheduler noise. Break the tie deterministically (lowest PU
			// wins) so the frontier, and with it the grant-time transfer
			// pricing, never depends on goroutine interleaving.
			l.frontierPU = releasePU
		}
	}
	// Only a write release changes who produced the location's data; the
	// measured communication matrix attributes grants to that producer.
	if r.mode == Write {
		l.frontierTask = releaseTask
	}
	l.grantLocked()
	return nil
}

// grantLocked grants the head of the FIFO: a write request alone, or the
// maximal group of consecutive read requests at the head. Requests learn
// the virtual-time frontier captured at their grant. Called with l.mu held.
func (l *Location) grantLocked() {
	if len(l.queue) == 0 {
		return
	}
	grant := func(r *request) {
		if r.granted.Load() {
			return
		}
		r.grantClock = l.frontier
		r.grantPU = int32(l.frontierPU)
		r.grantTask = int32(l.frontierTask)
		r.fromMemory = l.frontierPU == -1
		r.granted.Store(true)
		l.grants++
		// Only an owner parked in Acquire on this handle gets a token. A task
		// parks on one handle at a time and takes its token before it
		// returns, so the capacity-1 channel always has room.
		if r.h.waiting.CompareAndSwap(true, false) {
			select {
			case r.h.task.wake <- struct{}{}:
			default:
				panic(fmt.Sprintf("orwl: second wake token for %s on the %s handle for %q", r.h.task, r.mode, l.name))
			}
		}
	}
	head := l.queue[0]
	if head.mode == Write {
		// Exclusive: granted only when it is alone at the head.
		grant(head)
		return
	}
	for _, r := range l.queue {
		if r.mode != Read {
			break
		}
		grant(r)
	}
}

// newRequest readies the handle's free slot as a fresh, unqueued request:
// the slot h.req does not occupy, whose previous request left the FIFO at the
// last release.
func newRequest(h *Handle) *request {
	r := &h.slots[0]
	if h.req == r {
		r = &h.slots[1]
	}
	*r = request{h: h, mode: h.mode, grantPU: -1, grantTask: -1}
	return r
}
