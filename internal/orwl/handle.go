package orwl

import (
	"fmt"
	"sync/atomic"
)

// HandleState is the lifecycle state of a handle.
type HandleState int

const (
	// Idle: no request queued.
	Idle HandleState = iota
	// Requested: a request is queued but not yet acquired by the task.
	Requested
	// Acquired: the task holds the lock and may access the data.
	Acquired
)

// String names the state.
func (s HandleState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Requested:
		return "requested"
	case Acquired:
		return "acquired"
	default:
		return fmt.Sprintf("HandleState(%d)", int(s))
	}
}

// Handle binds a task to a location with an access mode. A handle has no
// lock: its methods belong to the owner task's goroutine, or to any goroutine
// while no task runs (Run's canonical insertion before the tasks start, its
// clean-up after they are joined). A grant reaches it from another goroutine
// only through l.mu, then the request's granted flag or the task's wake
// token, each of which orders the granter's writes before the owner's reads.
//
// A handle owns everything a lock handoff needs, so none allocates. Its two
// request slots are used alternately: ReleaseAndRequest queues one while the
// other is still held, and a slot is rewritten only after its previous
// request left the FIFO under l.mu (see request). Acquire returns at once on
// a request already granted; otherwise it raises waiting and parks on the
// task's wake channel, and the granter sends there only when it takes
// waiting back down. A task waits on one handle at a time, so one token of
// capacity per task suffices — grantLocked asserts it.
type Handle struct {
	task *Task
	loc  *Location
	req  *request // the current request: nil or one of slots
	// vol is the data volume, in bytes, that one iteration of the task
	// moves through this handle; it feeds both the affinity matrix and the
	// virtual-time transfer costs. Defaults to the location size.
	vol  float64
	mode Mode
	// rank orders the initial canonical request insertion: lower ranks are
	// inserted first on each location. It lets iterative applications pick
	// which side of a producer/consumer pair starts the cycle.
	rank  int
	state HandleState
	// idx is the creation index within the task, the canonical tiebreaker.
	idx int32
	// waiting is set while the owner is parked in Acquire on req.
	waiting atomic.Bool
	slots   [2]request
}

// Location returns the location the handle is bound to.
func (h *Handle) Location() *Location { return h.loc }

// Mode returns the handle's access mode.
func (h *Handle) Mode() Mode { return h.mode }

// State returns the handle's lifecycle state.
func (h *Handle) State() HandleState { return h.state }

// SetVolume changes the volume attributed to the handle's subsequent
// acquires. It is meant to be called from the owning task's goroutine (see
// Handle) when the application's communication pattern shifts mid-run: both
// the transfer costs and the measured communication window follow the new
// volume, which is how a phase change becomes visible to epoch-based
// re-placement. The statically extracted CommMatrix, in contrast, only ever
// sees the volumes declared at build time.
func (h *Handle) SetVolume(vol float64) { h.vol = vol }

// Request enqueues a lock request. The runtime performs the initial
// canonical insertion itself during Run; tasks call Request directly only
// for ad-hoc (non-iterative) protocols.
func (h *Handle) Request() error {
	if h.state != Idle {
		return fmt.Errorf("orwl: Request on %s handle for %q in state %v", h.mode, h.loc.name, h.state)
	}
	h.req = newRequest(h)
	h.state = Requested
	h.loc.enqueue(h.req)
	return nil
}

// Acquire blocks until the queued request is granted. On a runtime with an
// attached machine it also advances the task's virtual clock to the grant
// time and charges the cost of moving the handle's data volume from
// wherever the previous holder released it.
func (h *Handle) Acquire() error {
	if h.state == Acquired {
		return fmt.Errorf("orwl: Acquire on already-acquired handle for %q", h.loc.name)
	}
	if h.state != Requested {
		return fmt.Errorf("orwl: Acquire without Request on %q", h.loc.name)
	}
	req := h.req
	if !req.granted.Load() {
		// Raise waiting, then look again: with sequentially consistent
		// atomics either this load sees the grant or the granter sees
		// waiting. If both did, whichever lowers waiting first decides
		// whether a token is sent, and the owner takes it.
		h.waiting.Store(true)
		if !req.granted.Load() || !h.waiting.CompareAndSwap(true, false) {
			<-h.task.wake
		}
	}
	h.state = Acquired

	if from := int(req.grantTask); from >= 0 && from != h.task.id {
		h.task.recordComm(from, h.vol)
	}
	if p := h.task.proc; p != nil {
		p.AdvanceTo(req.grantClock)
		if req.fromMemory {
			if h.loc.region != nil {
				p.MemRead(h.loc.region, h.vol)
			}
		} else {
			cost := h.task.rt.mach.TransferCost(int(req.grantPU), p.PU(), h.vol)
			p.ChargeTransfer(cost)
		}
		h.task.chargeControlEvent()
	}
	h.task.rt.trace(h.task, "acquire", h.loc)
	return nil
}

// Release gives the lock up and leaves the queue. The data becomes
// available to the next request(s) in FIFO order.
func (h *Handle) Release() error {
	return h.release(false)
}

// ReleaseAndRequest atomically enqueues a fresh request and then releases
// the held lock: the ORWL iterative primitive (orwl_next). Because the new
// request is inserted while the old one is still held, every conflicting
// task that participates in the steady-state cycle is already queued, so
// the task keeps its position in the periodic schedule.
func (h *Handle) ReleaseAndRequest() error {
	return h.release(true)
}

// ReleaseOrNext ends one iteration of an iterative task: it releases the
// handle after the final iteration (last) and re-requests it otherwise
// (ReleaseAndRequest).
func (h *Handle) ReleaseOrNext(last bool) error {
	return h.release(!last)
}

func (h *Handle) release(again bool) error {
	if h.state != Acquired {
		return fmt.Errorf("orwl: Release on non-acquired handle for %q (state %v)", h.loc.name, h.state)
	}
	var reinsert *request
	if again {
		reinsert = newRequest(h)
	}
	clock, pu := 0.0, -2
	if p := h.task.proc; p != nil {
		clock, pu = p.Clock(), p.PU()
	}
	if err := h.loc.remove(h.req, reinsert, clock, pu, h.task.id); err != nil {
		return err
	}
	h.req = reinsert
	if reinsert != nil {
		h.state = Requested
	} else {
		h.state = Idle
	}
	h.task.rt.trace(h.task, "release", h.loc)
	return nil
}

// Data returns the payload of the location. It fails unless the handle is
// currently acquired: accessing a location outside the critical section is
// a programming error that the C ORWL library turns into undefined
// behaviour and that we surface as an error instead.
func (h *Handle) Data() (interface{}, error) {
	if h.state != Acquired {
		return nil, fmt.Errorf("orwl: Data access on %q outside the critical section (state %v)", h.loc.name, h.state)
	}
	h.loc.mu.Lock()
	defer h.loc.mu.Unlock()
	return h.loc.data, nil
}

// Float64s returns the payload as a []float64, the common case for the
// numeric kernels in this repository.
func (h *Handle) Float64s() ([]float64, error) {
	v, err := h.Data()
	if err != nil {
		return nil, err
	}
	if v == nil {
		return nil, nil
	}
	f, ok := v.([]float64)
	if !ok {
		return nil, fmt.Errorf("orwl: payload of %q is %T, not []float64", h.loc.name, v)
	}
	return f, nil
}
