package orwl

import (
	"testing"
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
// request slots and the wake token of a handle: each step names a handle,
// an operation, and for "try" (acquire only if the token is there) and
// "granted" the expected answer.
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
			// Both slots and the one token of a, reused across two requests.
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
			// once and then withdrawn by Run: its token must go with it, or
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
			// Withdrawing a request that was never granted leaves no token
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
					// token accounting; fail instead of hanging the suite.
					if !granted(h) {
						t.Fatalf("step %d: %s acquire would block", i, s.h)
					}
					err = h.Acquire()
				case "try":
					// A non-blocking acquire: it takes the lock exactly when
					// the wake token is there.
					if ok := len(h.wake) == 1; ok != s.want {
						t.Fatalf("step %d: %s holds a wake token = %v, want %v", i, s.h, ok, s.want)
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
				if h.State() != Idle || len(h.wake) != 0 {
					t.Errorf("%s ends in state %v with %d token(s)", name, h.State(), len(h.wake))
				}
			}
		})
	}
}
