package placement

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/orwl"
	"repro/internal/treematch"
)

// TestTreeMatchUnevenSMT is the regression test for the smtWays derivation:
// on an uneven-SMT topology (core 0 has two hyperthreads, core 1 has one)
// the old code read the hyperthread count off the first core only, chose the
// hyperthread pairing strategy, and then asked for second hyperthreads that
// do not exist — reporting ControlHyperthread while silently leaving some
// control threads unmapped. With the per-core minimum the hyperthread
// strategy is only chosen when every core really has a second thread.
func TestTreeMatchUnevenSMT(t *testing.T) {
	mach := machine(t, "pack:1 core:2 pu:2,1")
	m := comm.Ring(2, 100)
	a, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy == treematch.ControlHyperthread {
		t.Fatalf("hyperthread strategy chosen on a machine where core 1 has no second hyperthread")
	}
	// Strategy and per-task control placement must agree: no task may
	// report a mapped strategy and carry an unmapped control thread.
	for i, ctl := range a.ControlPU {
		switch a.Strategy {
		case treematch.ControlUnmapped:
			if ctl != -1 {
				t.Errorf("task %d: control on PU %d under the unmapped strategy", i, ctl)
			}
		default:
			if ctl < 0 {
				t.Errorf("task %d: unmapped control thread under strategy %v", i, a.Strategy)
			}
		}
	}
}

// TestTreeMatchUnevenSMTMoreCores covers the spare-cores path on an uneven
// machine: four cores of which one lacks the second hyperthread, two tasks.
// The minimum says "no SMT", so the spare cores take the control threads —
// on PUs that exist.
func TestTreeMatchUnevenSMTMoreCores(t *testing.T) {
	mach := machine(t, "pack:1 core:4 pu:2,2,2,1")
	m := comm.Ring(2, 100)
	a, err := TreeMatch{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.Strategy != treematch.ControlSpareCores {
		t.Fatalf("strategy = %v, want spare-cores", a.Strategy)
	}
	topo := mach.Topology()
	for i, ctl := range a.ControlPU {
		if ctl < 0 || ctl >= topo.NumPUs() {
			t.Errorf("task %d: control PU %d out of range", i, ctl)
		}
	}
}

// controlShuffler is a stub policy for the control-rebind pricing test: the
// first Assign returns the baseline; later Assigns move one computation
// thread for a real but small gain and shuffle every control thread.
type controlShuffler struct {
	calls *int
}

func (controlShuffler) Name() string { return "control-shuffler" }

func (p controlShuffler) Assign(mach *numasim.Machine, m *comm.Matrix) (*Assignment, error) {
	*p.calls++
	n := m.Order()
	a := &Assignment{
		Policy:    "control-shuffler",
		TaskPU:    make([]int, n),
		ControlPU: make([]int, n),
	}
	pus := mach.Topology().NumPUs()
	for i := 0; i < n; i++ {
		a.TaskPU[i] = i % pus
		a.ControlPU[i] = -1
	}
	if *p.calls > 1 {
		// Tiny computation gain: move the last task next to its partner...
		a.TaskPU[n-1] = (n - 2) % pus
		// ...and shuffle every control thread, which is where the real
		// migration bill of this candidate lies.
		for i := 0; i < n; i++ {
			a.ControlPU[i] = (i + 1) % pus
		}
	}
	return a, nil
}

// TestAdaptiveControlRebindsPriced is the regression test for the
// hysteresis underpricing: the engine applied control-thread rebinds but
// summed only computation-thread moves into the migration cost, so a
// candidate that shuffles many control threads for a marginal gain slipped
// under the threshold. Priced correctly, the control-heavy candidate must
// now be skipped.
func TestAdaptiveControlRebindsPriced(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:4 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach, Seed: 7})
	n := 8
	// Tiny locations keep the computation move itself cheap (~1 migration
	// penalty); large declared volumes make the candidate's predicted gain
	// land between "one move" and "one move plus eight control rebinds", so
	// the decision flips on whether control rebinds are priced.
	locs := make([]*orwl.Location, n)
	for i := range locs {
		locs[i] = rt.NewLocation("l", 1<<10)
	}
	iters := 6
	for i := 0; i < n; i++ {
		i := i
		task := rt.AddTask("t", nil)
		r := task.NewHandleVol(locs[(i+1)%n], orwl.Read, 512<<10, 0)
		w := task.NewHandleVol(locs[i], orwl.Write, 512<<10, 1)
		task.SetFunc(func(tk *orwl.Task) error {
			for it := 0; it < iters; it++ {
				last := it == iters-1
				for _, h := range []*orwl.Handle{r, w} {
					if err := h.Acquire(); err != nil {
						return err
					}
					var err error
					if last {
						err = h.Release()
					} else {
						err = h.ReleaseAndRequest()
					}
					if err != nil {
						return err
					}
				}
				tk.EndIteration()
			}
			return nil
		})
	}
	calls := 0
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{
		Base:       controlShuffler{calls: &calls},
		EpochIters: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Err(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	// The candidate's one-task gain cannot recoup the migration penalty of
	// eight control rebinds plus one computation move: every epoch must be
	// skipped. (Pre-fix, the unpriced control moves made the candidate look
	// cheap enough to apply.)
	if st.Applied != 0 {
		t.Errorf("control-heavy candidate applied %d times, want 0 (stats %+v)", st.Applied, st)
	}
}

// TestNegativeHandleVolumeStopsInORWL builds a program whose task declares a
// read handle of volume -5 on a location other tasks write, then places it.
// The volume is rejected where it enters the runtime, naming the task, the
// location and the value; it never reaches the matrix the placement groups.
func TestNegativeHandleVolumeStopsInORWL(t *testing.T) {
	rt := orwl.NewRuntime(orwl.Options{Machine: machine(t, "pack:2 core:2 pu:1")})
	loc := rt.NewLocation("shared", 1<<10)
	var tasks []*orwl.Task
	for i := 0; i < 4; i++ {
		task := rt.AddTask(fmt.Sprintf("t%d", i), nil)
		task.NewHandle(rt.NewLocation(fmt.Sprintf("own%d", i), 1<<10), orwl.Write)
		tasks = append(tasks, task)
	}
	tasks[0].NewHandle(loc, orwl.Write)
	defer func() {
		const want = `orwl: task#1(t1) declares volume -5 on "shared", want a finite volume ≥ 0`
		if got := fmt.Sprint(recover()); got != want {
			t.Errorf("panic %q, want %q", got, want)
		}
	}()
	tasks[1].NewHandleVol(loc, orwl.Read, -5, 0)
	_, err := Place(rt, TreeMatch{}, nil)
	t.Fatalf("a handle of volume -5 reached Place (err %v)", err)
}
