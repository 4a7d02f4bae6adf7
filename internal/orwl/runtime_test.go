package orwl

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/numasim"
	"repro/internal/topology"
)

func simRuntime(t *testing.T, spec string, seed int64) *Runtime {
	t.Helper()
	return NewRuntime(Options{Machine: simMachine(t, spec), Seed: seed})
}

func simMachine(t *testing.T, spec string) *numasim.Machine {
	t.Helper()
	top, err := topology.FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := numasim.New(top, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return mach
}

// ringProgram builds n tasks passing values around a ring of locations:
// task i reads location (i-1+n)%n and writes location i. The body follows
// the canonical ORWL iterative pattern — acquire the read, copy in, release
// it, then acquire the write — so the cyclic data dependency never becomes
// a cyclic wait (holding the read while waiting for the write would
// deadlock the ring). Readers are rank 0: at iteration 0 every task reads
// the initial location contents, Jacobi-style, so after K iterations every
// location holds exactly K.
func ringProgram(rt *Runtime, n, iters int, size int64) []*Location {
	locs := make([]*Location, n)
	for i := 0; i < n; i++ {
		locs[i] = rt.NewLocation(fmt.Sprintf("ring%d", i), size)
		locs[i].SetData([]float64{0})
	}
	for i := 0; i < n; i++ {
		task := rt.AddTask(fmt.Sprintf("t%d", i), func(task *Task) error {
			r, w := task.Handle(0), task.Handle(1)
			for it := 0; it < iters; it++ {
				last := it == iters-1
				if err := r.Acquire(); err != nil {
					return err
				}
				in, err := r.Float64s()
				if err != nil {
					return err
				}
				v := in[0]
				if err := r.ReleaseOrNext(last); err != nil {
					return err
				}
				if err := w.Acquire(); err != nil {
					return err
				}
				out, err := w.Float64s()
				if err != nil {
					return err
				}
				out[0] = v + 1
				// Each iteration also sweeps the task's own working set,
				// the dominant cost of real iterative kernels.
				if p := task.Proc(); p != nil {
					p.SweepWorkingSet(w.Location().Region(), w.Location().Size())
				}
				task.EndIteration()
				if err := w.ReleaseOrNext(last); err != nil {
					return err
				}
			}
			return nil
		})
		task.NewHandleVol(locs[(i-1+n)%n], Read, 8, 0)
		task.NewHandleVol(locs[i], Write, 8, 1)
	}
	return locs
}

func TestRingProgramNoMachine(t *testing.T) {
	rt := buildRuntime()
	locs := ringProgram(rt, 4, 10, 8)
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Jacobi-style propagation from an all-zero ring: after K iterations
	// every location holds exactly K.
	for i, l := range locs {
		if v := l.data.([]float64)[0]; v != 10 {
			t.Errorf("location %d final value %v, want 10", i, v)
		}
	}
	if rt.WallTime() <= 0 {
		t.Errorf("WallTime = %v", rt.WallTime())
	}
}

func TestRunTwiceFails(t *testing.T) {
	rt := buildRuntime()
	ringProgram(rt, 2, 1, 8)
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rt.Run(); err == nil {
		t.Errorf("second Run succeeded")
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	rt := buildRuntime()
	boom := errors.New("boom")
	rt.AddTask("bad", func(*Task) error { return boom })
	rt.AddTask("good", func(*Task) error { return nil })
	err := rt.Run()
	if !errors.Is(err, boom) {
		t.Errorf("Run error = %v, want wrapped boom", err)
	}
}

func TestLeakedAcquireReported(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	task := rt.AddTask("leaky", func(task *Task) error {
		return task.Handle(0).Acquire() // never released
	})
	task.NewHandle(loc, Write)
	err := rt.Run()
	if err == nil || !strings.Contains(err.Error(), "still acquired") {
		t.Errorf("leak not reported: %v", err)
	}
}

func TestLeftoverRequestDrained(t *testing.T) {
	// A task that ends with ReleaseAndRequest leaves a queued request; Run
	// must drain it silently.
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	task := rt.AddTask("t", func(task *Task) error {
		h := task.Handle(0)
		if err := h.Acquire(); err != nil {
			return err
		}
		return h.ReleaseAndRequest()
	})
	task.NewHandle(loc, Write)
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if loc.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", loc.QueueLen())
	}
}

// TestBindRejectsNegativePU: -1 is the one negative target (unbound, or an
// unmapped control thread); anything below it is an error naming the task
// and the PU, with or without a machine.
func TestBindRejectsNegativePU(t *testing.T) {
	for _, tc := range []struct {
		name string
		bind func(*Runtime, *Task, int) error
	}{
		{"Bind", (*Runtime).Bind},
		{"BindControl", (*Runtime).BindControl},
	} {
		for _, withMachine := range []bool{false, true} {
			for _, pu := range []int{-1, -2, -5, -7} {
				rt := buildRuntime()
				if withMachine {
					rt = simRuntime(t, "pack:2 core:2 pu:1", 1)
				}
				task := rt.AddTask("t", nil)
				err := tc.bind(rt, task, pu)
				if pu == -1 {
					if err != nil {
						t.Errorf("%s(-1), machine=%v: %v", tc.name, withMachine, err)
					}
					continue
				}
				if err == nil {
					t.Errorf("%s(%d), machine=%v accepted", tc.name, pu, withMachine)
				} else if msg := err.Error(); !strings.Contains(msg, task.String()) || !strings.Contains(msg, fmt.Sprint(pu)) {
					t.Errorf("%s(%d): error %q must name %s and the PU", tc.name, pu, msg, task)
				}
			}
		}
	}
}

func TestBindValidation(t *testing.T) {
	rt := simRuntime(t, "pack:2 core:2 pu:1", 1)
	task := rt.AddTask("t", func(task *Task) error { return nil })
	if err := rt.Bind(task, 99); err == nil {
		t.Errorf("out-of-range bind accepted")
	}
	if err := rt.Bind(task, 3); err != nil {
		t.Errorf("valid bind rejected: %v", err)
	}
	if err := rt.BindControl(task, 99); err == nil {
		t.Errorf("out-of-range control bind accepted")
	}
	if err := rt.BindControl(task, 2); err != nil {
		t.Errorf("valid control bind rejected: %v", err)
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rt.Bind(task, 0); err == nil {
		t.Errorf("bind after Run accepted")
	}
	if err := rt.BindControl(task, 0); err == nil {
		t.Errorf("control bind after Run accepted")
	}
}

func TestSimulatedTimeDeterministic(t *testing.T) {
	run := func() float64 {
		rt := simRuntime(t, "pack:2 core:4 pu:1", 42)
		ringProgram(rt, 8, 20, 8)
		for i, task := range rt.Tasks() {
			if err := rt.Bind(task, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.MakespanCycles()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("bound simulated makespan not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Errorf("makespan = %v", a)
	}
}

// TestRuntimesShareMachine: two runtimes running at once on one Machine each
// reach their solo makespan bit for bit. Their tasks sit on disjoint
// packages, so neither prices the other's occupancy; under -race the test
// also checks that one runtime's pricing and another's Proc binding on a
// shared Machine are race-free.
func TestRuntimesShareMachine(t *testing.T) {
	const spec = "pack:2 l3:1 core:4 pu:2"
	build := func(mach *numasim.Machine, k int) *Runtime {
		rt := NewRuntime(Options{Machine: mach, Seed: int64(k)})
		ringProgram(rt, 8, 20+10*k, 4096)
		for i, task := range rt.Tasks() {
			if err := rt.Bind(task, 8*k+i); err != nil {
				t.Fatal(err)
			}
		}
		return rt
	}
	var solo [2]float64
	for k := range solo {
		rt := build(simMachine(t, spec), k)
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		solo[k] = rt.MakespanCycles()
	}
	shared := simMachine(t, spec)
	rts := [2]*Runtime{build(shared, 0), build(shared, 1)}
	var errs [2]error
	var wg sync.WaitGroup
	for k, rt := range rts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = rt.Run()
		}()
	}
	wg.Wait()
	for k, rt := range rts {
		if errs[k] != nil {
			t.Fatalf("runtime %d: %v", k, errs[k])
		}
		if got := rt.MakespanCycles(); got != solo[k] {
			t.Errorf("runtime %d: makespan %v on the shared machine, %v solo", k, got, solo[k])
		}
	}
	if solo[0] == solo[1] {
		t.Errorf("both runtimes reached makespan %v: the programs should differ", solo[0])
	}
}

func TestUnboundSimDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) float64 {
		rt := simRuntime(t, "pack:2 core:4 pu:1", seed)
		ringProgram(rt, 8, 20, 8)
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.MakespanCycles()
	}
	if a, b := run(7), run(7); a != b {
		t.Errorf("unbound makespan differs for equal seeds: %v vs %v", a, b)
	}
}

func TestBindingBeatsUnbound(t *testing.T) {
	// The paper's Bind-vs-NoBind effect in miniature: bound tasks first-touch
	// their working set locally and keep their caches warm; unbound tasks are
	// migrated by the simulated OS, turning their sweeps remote and cold.
	makespan := func(bind bool) float64 {
		rt := simRuntime(t, "pack:4 l3:1 core:4 pu:1", 3)
		ringProgram(rt, 16, 30, 256<<10)
		if bind {
			for i, task := range rt.Tasks() {
				if err := rt.Bind(task, i); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.MakespanCycles()
	}
	bound := makespan(true)
	unbound := makespan(false)
	if bound >= unbound {
		t.Errorf("bound makespan %v not below unbound %v", bound, unbound)
	}
	// Migrations must actually have happened in the unbound run for the
	// comparison to be meaningful; with 16 tasks × 30 iterations at
	// probability 0.25 the expected count is ~120, so >0 is a safe bet.
	rt := simRuntime(t, "pack:4 l3:1 core:4 pu:1", 3)
	ringProgram(rt, 16, 30, 256<<10)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	migrations := 0
	for _, task := range rt.Tasks() {
		migrations += task.Proc().Stats().Migrations
	}
	if migrations == 0 {
		t.Errorf("no migrations in the unbound run")
	}
}

func TestControlThreadDistanceCosts(t *testing.T) {
	// Same program, control threads at increasing distances: co-hyperthread
	// must beat same-node, which must beat unmapped.
	makespan := func(ctl func(taskPU int) int) float64 {
		rt := simRuntime(t, "pack:2 l3:1 core:4 pu:2", 5)
		ringProgram(rt, 8, 30, 8)
		for i, task := range rt.Tasks() {
			pu := i * 2 // even PUs: first hyperthread of each core
			if err := rt.Bind(task, pu); err != nil {
				t.Fatal(err)
			}
			if c := ctl(pu); c >= -1 {
				if err := rt.BindControl(task, c); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.MakespanCycles()
	}
	hyper := makespan(func(pu int) int { return pu + 1 }) // co-hyperthread
	unmapped := makespan(func(pu int) int { return -1 })  // OS
	if hyper >= unmapped {
		t.Errorf("co-hyperthread control %v not faster than unmapped %v", hyper, unmapped)
	}
}

func TestCommMatrixExtraction(t *testing.T) {
	rt := buildRuntime()
	ringProgram(rt, 4, 1, 8)
	m := rt.CommMatrix()
	if m.Order() != 4 {
		t.Fatalf("order = %d", m.Order())
	}
	// Ring neighbours communicate 8 bytes; non-neighbours nothing.
	for i := 0; i < 4; i++ {
		next := (i + 1) % 4
		if got := m.At(i, next); got != 8 {
			t.Errorf("affinity(%d,%d) = %v, want 8", i, next, got)
		}
		opposite := (i + 2) % 4
		if got := m.At(i, opposite); got != 0 {
			t.Errorf("affinity(%d,%d) = %v, want 0", i, opposite, got)
		}
	}
	if m.Label(2) != "t2" {
		t.Errorf("label = %q", m.Label(2))
	}
}

func TestCommMatrixModes(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("shared", 100)
	w1 := rt.AddTask("w1", nil)
	w2 := rt.AddTask("w2", nil)
	r1 := rt.AddTask("r1", nil)
	r2 := rt.AddTask("r2", nil)
	w1.NewHandleVol(loc, Write, 100, 0)
	w2.NewHandleVol(loc, Write, 40, 0)
	r1.NewHandleVol(loc, Read, 100, 0)
	r2.NewHandleVol(loc, Read, 100, 0)
	m := rt.CommMatrix()
	// writer-writer: min(100,40) = 40.
	if got := m.At(0, 1); got != 40 {
		t.Errorf("w-w volume = %v, want 40", got)
	}
	// writer-reader: min volumes.
	if got := m.At(0, 2); got != 100 {
		t.Errorf("w-r volume = %v, want 100", got)
	}
	if got := m.At(1, 3); got != 40 {
		t.Errorf("w2-r2 volume = %v, want 40", got)
	}
	// reader-reader: no data exchanged.
	if got := m.At(2, 3); got != 0 {
		t.Errorf("r-r volume = %v, want 0", got)
	}
}

func TestTraceHook(t *testing.T) {
	var events []TraceEvent
	rt := NewRuntime(Options{Trace: func(e TraceEvent) { events = append(events, e) }})
	loc := rt.NewLocation("x", 8)
	task := rt.AddTask("t", func(task *Task) error {
		h := task.Handle(0)
		if err := h.Acquire(); err != nil {
			return err
		}
		return h.Release()
	})
	task.NewHandle(loc, Write)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Op != "acquire" || events[1].Op != "release" {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Task.Name() != "t" || events[0].Location.Name() != "x" {
		t.Errorf("event fields wrong: %+v", events[0])
	}
}

func TestFirstTouchLocationPlacement(t *testing.T) {
	rt := simRuntime(t, "pack:2 core:2 pu:1", 1)
	loc := rt.NewLocation("x", 64)
	loc.SetData([]float64{0})
	task := rt.AddTask("t", func(task *Task) error {
		h := task.Handle(0)
		if err := h.Acquire(); err != nil {
			return err
		}
		return h.Release()
	})
	task.NewHandle(loc, Write)
	if err := rt.Bind(task, 3); err != nil { // PU 3 lives on node 1
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := loc.Region().Home(); got != 1 {
		t.Errorf("first-touch home = %d, want 1 (node of PU 3)", got)
	}
}

func TestMakespanWithoutMachine(t *testing.T) {
	rt := buildRuntime()
	ringProgram(rt, 2, 2, 8)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.MakespanSeconds() != 0 || rt.MakespanCycles() != 0 {
		t.Errorf("machine-less makespan non-zero")
	}
}

// TestBuildRejectsBadVolumes holds the two entrances of a volume into the
// runtime: NewHandleVol panics on a negative or non-finite volume and
// NewLocation on a negative size (NewHandle takes its volume from the size),
// each naming the task or location and the value. Zero and -0 are volumes.
func TestBuildRejectsBadVolumes(t *testing.T) {
	handle := func(vol float64) func(rt *Runtime) {
		return func(rt *Runtime) { rt.AddTask("w", nil).NewHandleVol(rt.NewLocation("l", 8), Read, vol, 0) }
	}
	location := func(size int64) func(rt *Runtime) {
		return func(rt *Runtime) { rt.AddTask("w", nil).NewHandle(rt.NewLocation("l", size), Write) }
	}
	const badVol = `orwl: task#0(w) declares volume %s on "l", want a finite volume ≥ 0`
	for _, c := range []struct {
		name  string
		build func(rt *Runtime)
		want  string // "" accepts
	}{
		{"volume -5", handle(-5), fmt.Sprintf(badVol, "-5")},
		{"volume NaN", handle(math.NaN()), fmt.Sprintf(badVol, "NaN")},
		{"volume +Inf", handle(math.Inf(1)), fmt.Sprintf(badVol, "+Inf")},
		{"volume -Inf", handle(math.Inf(-1)), fmt.Sprintf(badVol, "-Inf")},
		{"size -1", location(-1), `orwl: location "l" has size -1, want ≥ 0`},
		{"volume 0", handle(0), ""},
		{"volume -0", handle(math.Copysign(0, -1)), ""},
		{"size 0", location(0), ""},
	} {
		got := func() (msg string) {
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			c.build(NewRuntime(Options{}))
			return ""
		}()
		if got != c.want {
			t.Errorf("%s: panic %q, want %q", c.name, got, c.want)
		}
	}
}
