package orwl

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestHandoffAllocs pins the cost of the steady-state lock handoff: two
// tasks alternating on one location through Acquire + ReleaseAndRequest
// allocate nothing, with or without virtual-time pricing and traffic
// accounting on the path. One goroutine drives both handles (every release
// grants the other side, so nothing blocks), which keeps the count exact.
func TestHandoffAllocs(t *testing.T) {
	for _, tc := range []struct {
		name string
		rt   func() *Runtime
	}{
		{"no-machine", buildRuntime},
		{"machine", func() *Runtime { return simRuntime(t, "pack:2 l3:1 core:4 pu:1", 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := tc.rt()
			loc := rt.NewLocation("x", 4096)
			a := rt.AddTask("a", nil)
			b := rt.AddTask("b", nil)
			ha, hb := a.NewHandle(loc, Write), b.NewHandle(loc, Write)
			if rt.Machine() != nil {
				// Different NUMA nodes: every handoff prices a transfer.
				for i, task := range []*Task{a, b} {
					if err := rt.Bind(task, 4*i); err != nil {
						t.Fatal(err)
					}
					if err := rt.BindControl(task, 4*i); err != nil {
						t.Fatal(err)
					}
				}
			}
			allocs := -1.0
			a.SetFunc(func(*Task) error {
				cycle := func() {
					for _, h := range []*Handle{ha, hb} {
						if err := h.Acquire(); err != nil {
							t.Error(err)
						}
						if err := h.ReleaseAndRequest(); err != nil {
							t.Error(err)
						}
					}
				}
				cycle() // first grants: memory reads, first traffic counters
				allocs = testing.AllocsPerRun(100, cycle)
				return nil
			})
			if err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if allocs != 0 {
				t.Errorf("%v allocations per Acquire+ReleaseAndRequest cycle of two tasks, want 0", allocs)
			}
			if got, want := rt.MeasuredCommMatrix().At(0, 1), 2*101*4096.0+4096; got != want {
				t.Errorf("measured volume = %v, want %v: the cycles did not hand data over", got, want)
			}
		})
	}
}

// TestHandoffProtocols scripts ad-hoc (non-iterative) protocols against the
// request slots and the grant flag of a handle: each step names a handle,
// an operation, and for "try" (acquire only if granted and not yet
// acquired) and "granted" the expected answer. Every task runs alone on the
// test goroutine, so none ever parks and no script may leave a wake token.
func TestHandoffProtocols(t *testing.T) {
	type step struct {
		h, op string
		want  bool
	}
	for _, tc := range []struct {
		name    string
		handles map[string]Mode
		steps   []step
	}{
		{
			// Both slots of a, reused across two requests.
			name:    "poll-until-granted-then-again",
			handles: map[string]Mode{"a": Write, "b": Write},
			steps: []step{
				{"b", "request", false}, {"b", "acquire", false},
				{"a", "request", false}, {"a", "try", false}, {"a", "try", false},
				{"b", "release", false},
				{"a", "try", true}, {"a", "release", false},
				{"a", "request", false}, {"a", "acquire", false}, {"a", "release", false},
				{"a", "request", false}, {"a", "try", true}, {"a", "next", false},
				{"a", "acquire", false}, {"a", "release", false},
			},
		},
		{
			// One release wakes the whole group of readers at the head, and
			// only them.
			name:    "reader-group-woken-together",
			handles: map[string]Mode{"w": Write, "r1": Read, "r2": Read, "r3": Read, "w2": Write, "r4": Read},
			steps: []step{
				{"w", "request", false}, {"r1", "request", false}, {"r2", "request", false},
				{"r3", "request", false}, {"w2", "request", false}, {"r4", "request", false},
				{"w", "acquire", false},
				{"r1", "granted", false}, {"r3", "granted", false},
				{"w", "release", false},
				{"r1", "granted", true}, {"r2", "granted", true}, {"r3", "granted", true},
				{"w2", "granted", false}, {"r4", "granted", false},
				{"r3", "try", true}, {"r1", "acquire", false}, {"r2", "try", true},
				{"w2", "try", false}, {"r4", "try", false},
				{"r1", "release", false}, {"r2", "release", false}, {"w2", "try", false},
				{"r3", "release", false},
				{"w2", "try", true}, {"w2", "release", false},
				{"r4", "acquire", false}, {"r4", "release", false},
			},
		},
		{
			// The final ReleaseAndRequest of an iterative task is granted at
			// once and then withdrawn by Run: its grant must go with it, or
			// the next request would be acquired while b holds the lock.
			name:    "granted-then-cancelled",
			handles: map[string]Mode{"a": Write, "b": Write},
			steps: []step{
				{"a", "request", false}, {"a", "acquire", false}, {"a", "next", false},
				{"a", "granted", true}, {"a", "cancel", false},
				{"b", "request", false}, {"b", "acquire", false},
				{"a", "request", false}, {"a", "granted", false}, {"a", "try", false},
				{"b", "release", false},
				{"a", "granted", true}, {"a", "acquire", false}, {"a", "release", false},
			},
		},
		{
			// Withdrawing a request that was never granted leaves no grant
			// behind either, and grants whoever waited behind it.
			name:    "cancelled-while-waiting",
			handles: map[string]Mode{"a": Write, "b": Write, "c": Write},
			steps: []step{
				{"b", "request", false}, {"b", "acquire", false},
				{"a", "request", false}, {"c", "request", false},
				{"a", "cancel", false}, {"b", "release", false},
				{"c", "granted", true},
				{"a", "request", false}, {"a", "try", false},
				{"c", "acquire", false}, {"c", "release", false},
				{"a", "try", true}, {"a", "release", false},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := buildRuntime()
			loc := rt.NewLocation("x", 8)
			handles := make(map[string]*Handle)
			for name, mode := range tc.handles {
				handles[name] = rt.AddTask(name, nil).NewHandle(loc, mode)
			}
			for i, s := range tc.steps {
				h := handles[s.h]
				var err error
				switch s.op {
				case "request":
					err = h.Request()
				case "acquire":
					// A step that would block is a bug of the script or of the
					// grant accounting; fail instead of hanging the suite.
					if !granted(h) {
						t.Fatalf("step %d: %s acquire would block", i, s.h)
					}
					err = h.Acquire()
				case "try":
					// A non-blocking acquire: it takes the lock exactly when
					// the request is granted and not yet acquired.
					if ok := h.State() == Requested && h.req.granted.Load(); ok != s.want {
						t.Fatalf("step %d: %s granted and unacquired = %v, want %v", i, s.h, ok, s.want)
					} else if ok {
						err = h.Acquire()
					}
				case "granted":
					if got := granted(h); got != s.want {
						t.Fatalf("step %d: %s granted = %v, want %v", i, s.h, got, s.want)
					}
				case "release":
					err = h.Release()
				case "next":
					err = h.ReleaseAndRequest()
				case "cancel":
					err = h.cancelRequest()
				default:
					t.Fatalf("step %d: unknown op %q", i, s.op)
				}
				if err != nil {
					t.Fatalf("step %d: %s %s: %v", i, s.h, s.op, err)
				}
			}
			if loc.QueueLen() != 0 {
				t.Errorf("queue not empty at the end: %d", loc.QueueLen())
			}
			for name, h := range handles {
				if h.State() != Idle || len(h.task.wake) != 0 {
					t.Errorf("%s ends in state %v with %d token(s)", name, h.State(), len(h.task.wake))
				}
			}
		})
	}
}

// TestOneTokenPerTask: a task parked on its first handle while a grant on
// its second lands gets no token for the second (nobody waits on it), and
// is woken exactly once, by the grant it waits for. So one token of
// capacity per task suffices however many handles the task holds.
func TestOneTokenPerTask(t *testing.T) {
	rt := buildRuntime()
	x, y := rt.NewLocation("x", 8), rt.NewLocation("y", 8)
	owner, other := rt.AddTask("owner", nil), rt.AddTask("other", nil)
	ox, oy := owner.NewHandle(x, Write), owner.NewHandle(y, Write)
	ux, uy := other.NewHandle(x, Write), other.NewHandle(y, Write)
	for _, h := range []*Handle{ux, uy, ox, oy} {
		if err := h.Request(); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range []*Handle{ux, uy} {
		if err := h.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() {
		for _, h := range []*Handle{ox, oy} {
			if err := h.Acquire(); err != nil {
				done <- err
				return
			}
		}
		for _, h := range []*Handle{ox, oy} {
			if err := h.Release(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for !ox.waiting.Load() {
		runtime.Gosched()
	}
	if err := uy.Release(); err != nil {
		t.Fatal(err)
	}
	if !oy.req.granted.Load() || oy.waiting.Load() || len(owner.wake) != 0 {
		t.Fatalf("grant on the second handle: granted %v, waiting %v, %d token(s); want granted, no waiter, no token",
			oy.req.granted.Load(), oy.waiting.Load(), len(owner.wake))
	}
	if err := ux.Release(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for _, task := range []*Task{owner, other} {
		if len(task.wake) != 0 {
			t.Errorf("%s ends with a wake token", task)
		}
	}
	if x.QueueLen() != 0 || y.QueueLen() != 0 {
		t.Errorf("queues not empty: %d, %d", x.QueueLen(), y.QueueLen())
	}
}

// TestHandoffPingPong: two writers alternate on one location for many
// rounds. Between rounds each spins for a pseudo-random while outside the
// lock, so a task often arrives after its grant (the flag path) and the
// other task's release often lands while it is raising waiting (the race
// the re-read of granted closes). A lost wake-up hangs Run, which fails the
// test after a minute; a doubled token trips grantLocked's assertion or the
// final check.
func TestHandoffPingPong(t *testing.T) {
	const rounds = 20000
	rt := buildRuntime()
	loc := rt.NewLocation("ball", 8)
	loc.SetData([]float64{0})
	spun := make([]int, 2) // keeps the spin loops' sums live
	for i := 0; i < 2; i++ {
		task := rt.AddTask(fmt.Sprintf("p%d", i), func(task *Task) error {
			h := task.Handle(0)
			x, spin := uint32(task.ID()+1), 0
			for r := 0; r < rounds; r++ {
				if err := h.Acquire(); err != nil {
					return err
				}
				v, err := h.Float64s()
				if err != nil {
					return err
				}
				// The FIFO alternates the two tasks: p0 sees even counts.
				if int(v[0])%2 != task.ID() {
					return fmt.Errorf("round %d: count %v out of turn", r, v[0])
				}
				v[0]++
				if err := h.ReleaseOrNext(r == rounds-1); err != nil {
					return err
				}
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				for k := 0; k < int(x%20000); k++ {
					spin += k
				}
			}
			spun[task.ID()] = spin
			return nil
		})
		task.NewHandle(loc, Write)
	}
	done := make(chan error, 1)
	go func() { done <- rt.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("ping-pong still running after a minute: a wake-up was lost")
	}
	if got := loc.PeekData().([]float64)[0]; got != 2*rounds {
		t.Errorf("count = %v, want %d", got, 2*rounds)
	}
	for _, task := range rt.Tasks() {
		if len(task.wake) != 0 {
			t.Errorf("%s ends with a wake token", task)
		}
	}
}

// TestHandleFootprint pins what a handle and a task cost to create: a
// 144-byte Handle holding its two 40-byte request slots (64-bit ports), one
// allocation per NewHandleVol, and two per AddTask (the Task and its wake
// channel). Appends to the runtime's and the task's lists amortise below one
// allocation per call, which AllocsPerRun's integer average drops.
func TestHandleFootprint(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if got := unsafe.Sizeof(Handle{}); got != 144 {
			t.Errorf("Handle is %d bytes, want 144", got)
		}
		if got := unsafe.Sizeof(request{}); got != 40 {
			t.Errorf("request is %d bytes, want 40", got)
		}
	}
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	if n := testing.AllocsPerRun(200, func() { rt.AddTask("t", nil) }); n != 2 {
		t.Errorf("AddTask: %v allocations, want 2", n)
	}
	task := rt.AddTask("t", nil)
	if n := testing.AllocsPerRun(200, func() { task.NewHandleVol(loc, Read, 8, 0) }); n != 1 {
		t.Errorf("NewHandleVol: %v allocations, want 1", n)
	}
}
