package orwl

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/numasim"
	"repro/internal/topology"
)

// epochRing builds n tasks where task i writes its own location and reads
// its left neighbour's, iters times — an iterative cycle that exercises the
// epoch barrier with real lock traffic. Every task calls EndIteration after
// its final release of the iteration, as epoch-enabled programs must.
func epochRing(t *testing.T, rt *Runtime, n, iters int, volume float64) {
	t.Helper()
	locs := make([]*Location, n)
	for i := 0; i < n; i++ {
		locs[i] = rt.NewLocation("ring", int64(volume))
	}
	for i := 0; i < n; i++ {
		task := rt.AddTask("t", nil)
		left := locs[(i+n-1)%n]
		r := task.NewHandleVol(left, Read, volume, 0)
		w := task.NewHandleVol(locs[i], Write, volume, 1)
		task.SetFunc(func(tk *Task) error {
			for it := 0; it < iters; it++ {
				last := it == iters-1
				for _, h := range []*Handle{r, w} {
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
}

func epochMachine(t *testing.T) *numasim.Machine {
	t.Helper()
	topo, err := topology.FromSpec("pack:2 l3:1 core:4 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	m, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEpochHookFiresAtBoundaries(t *testing.T) {
	mach := epochMachine(t)
	rt := NewRuntime(Options{Machine: mach})
	epochRing(t, rt, 4, 12, 1024)
	var indices []int
	if err := rt.ConfigureEpochs(3, func(e *Epoch) {
		indices = append(indices, e.Index())
		if got := len(e.Tasks()); got != 4 {
			t.Errorf("epoch %d: %d tasks at the barrier, want 4", e.Index(), got)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, task := range rt.Tasks() {
		if err := rt.Bind(task, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// 12 iterations / interval 3 = 4 epochs, the last at program end.
	if len(indices) != 4 {
		t.Fatalf("hook fired %d times, want 4 (%v)", len(indices), indices)
	}
	for i, idx := range indices {
		if idx != i+1 {
			t.Errorf("epoch indices %v, want 1..4", indices)
			break
		}
	}
}

func TestEpochWindowResetsBetweenEpochs(t *testing.T) {
	const vol = 2048
	mach := epochMachine(t)
	rt := NewRuntime(Options{Machine: mach})
	epochRing(t, rt, 3, 8, vol)
	var windows []float64
	if err := rt.ConfigureEpochs(4, func(e *Epoch) {
		windows = append(windows, e.Window().TotalVolume())
	}); err != nil {
		t.Fatal(err)
	}
	for i, task := range rt.Tasks() {
		if err := rt.Bind(task, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(windows) != 2 {
		t.Fatalf("hook fired %d times, want 2", len(windows))
	}
	// Each epoch must see only its own 4 iterations' traffic: the window
	// resets between epochs instead of accumulating run-to-date volume.
	if windows[0] <= 0 {
		t.Fatalf("first epoch window empty")
	}
	if windows[1] > windows[0]*1.5 {
		t.Errorf("second epoch window %v not reset (first %v)", windows[1], windows[0])
	}
	// The run-to-date measured matrix keeps growing regardless.
	total := rt.MeasuredCommMatrix().TotalVolume()
	if total < windows[0]+windows[1] {
		t.Errorf("measured total %v smaller than the epoch windows %v", total, windows)
	}
}

// TestEpochWindowWithoutMachine runs the epoch hook on a runtime with no
// machine attached: the window is still there, of the runtime's task count.
func TestEpochWindowWithoutMachine(t *testing.T) {
	rt := NewRuntime(Options{})
	epochRing(t, rt, 3, 4, 512)
	epochs := 0
	if err := rt.ConfigureEpochs(2, func(e *Epoch) {
		epochs++
		w := e.Window()
		if w == nil {
			t.Errorf("epoch %d: nil window", e.Index())
		} else if w.Order() != 3 || w.TotalVolume() == 0 {
			t.Errorf("epoch %d: window of order %d with volume %v, want order 3 with traffic", e.Index(), w.Order(), w.TotalVolume())
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if epochs != 2 {
		t.Errorf("hook fired %d times, want 2", epochs)
	}
}

func TestEpochRebindMovesTaskAndData(t *testing.T) {
	mach := epochMachine(t)
	rt := NewRuntime(Options{Machine: mach})
	epochRing(t, rt, 2, 6, 4096)
	tasks := rt.Tasks()
	rebound := false
	if err := rt.ConfigureEpochs(2, func(e *Epoch) {
		if rebound {
			return
		}
		rebound = true
		if err := e.Rebind(tasks[0], 7); err != nil { // other socket
			t.Errorf("Rebind: %v", err)
		}
		if err := e.RebindControl(tasks[0], 6); err != nil {
			t.Errorf("RebindControl: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, task := range tasks {
		if err := rt.Bind(task, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tasks[0].Proc().PU(); got != 7 {
		t.Errorf("task 0 on PU %d after rebind, want 7", got)
	}
	if got := tasks[0].pu; got != 7 {
		t.Errorf("task PU = %d after rebind, want 7", got)
	}
	if got := tasks[0].ctlPU; got != 6 {
		t.Errorf("control PU %d after rebind, want 6", got)
	}
	if got := tasks[0].Proc().Stats().Migrations; got != 1 {
		t.Errorf("migrations = %d, want 1 (the charged rebind)", got)
	}
	// The task's written location followed it to the new socket.
	var wLoc *Location
	for _, h := range tasks[0].Handles() {
		if h.Mode() == Write {
			wLoc = h.Location()
		}
	}
	if home := wLoc.Region().Home(); home != mach.NodeOfPU(7) {
		t.Errorf("written region homed on node %d, want %d", home, mach.NodeOfPU(7))
	}
}

func TestEpochRebindChargedVsFree(t *testing.T) {
	run := func(free bool) float64 {
		mach := epochMachine(t)
		rt := NewRuntime(Options{Machine: mach})
		epochRing(t, rt, 2, 8, 1<<16)
		tasks := rt.Tasks()
		moved := false
		if err := rt.ConfigureEpochs(2, func(e *Epoch) {
			if moved {
				return
			}
			moved = true
			var err error
			if free {
				err = e.RebindFree(tasks[0], 7)
			} else {
				err = e.Rebind(tasks[0], 7)
			}
			if err != nil {
				t.Errorf("rebind: %v", err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		for i, task := range tasks {
			if err := rt.Bind(task, i); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.Run(); err != nil {
			t.Fatal(err)
		}
		return rt.MakespanCycles()
	}
	charged, free := run(false), run(true)
	if charged <= free {
		t.Errorf("charged rebind makespan %v not above the free-migration bound %v", charged, free)
	}
}

func TestEpochDeterminism(t *testing.T) {
	run := func() float64 {
		mach := epochMachine(t)
		rt := NewRuntime(Options{Machine: mach, Seed: 11})
		epochRing(t, rt, 6, 12, 8192)
		if err := rt.ConfigureEpochs(3, func(e *Epoch) {
			// Rotate every task one core to the right each epoch: constant
			// churn, still deterministic.
			for i, task := range e.Tasks() {
				if err := e.Rebind(task, (task.Proc().PU()+1)%8); err != nil {
					t.Errorf("rebind %d: %v", i, err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("epoch-enabled run not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Errorf("makespan %v not positive", a)
	}
}

func TestConfigureEpochsValidation(t *testing.T) {
	rt := NewRuntime(Options{})
	if err := rt.ConfigureEpochs(0, nil); err == nil {
		t.Errorf("interval 0 accepted")
	}
	rt1 := NewRuntime(Options{})
	if err := rt1.ConfigureEpochs(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt1.ConfigureEpochs(3, nil); err == nil {
		t.Errorf("second ConfigureEpochs silently replaced the first")
	}
	rt2 := NewRuntime(Options{})
	rt2.AddTask("t", func(*Task) error { return nil })
	if err := rt2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := rt2.ConfigureEpochs(1, nil); err == nil {
		t.Errorf("ConfigureEpochs after Run accepted")
	}
}

// TestEpochWindowSurvivesCrossNodeRebind pins the feedback loop at cluster
// scale: rebinding a task across a cluster-node boundary mid-run (the
// fabric-priced inter-node migration of adaptive placement) must neither
// stall the quiesced runtime nor break the windowed measured matrix — the
// window keeps accumulating the migrated task's traffic under its stable
// task ID, and the task's written region is re-homed onto the new node.
func TestEpochWindowSurvivesCrossNodeRebind(t *testing.T) {
	topo, err := topology.FromSpec("rack:2 node:2 pack:1 l3:1 core:2 pu:1")
	if err != nil {
		t.Fatal(err)
	}
	mach, err := numasim.New(topo, numasim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(Options{Machine: mach})
	const n, iters, volume = 4, 12, 1 << 16
	epochRing(t, rt, n, iters, volume)
	tasks := rt.Tasks()
	for i, task := range tasks {
		// One task per cluster node: PUs 0,2,4,6 on the 2-rack fabric.
		if err := rt.Bind(task, 2*i); err != nil {
			t.Fatal(err)
		}
	}
	// Rebind task 0 across the rack boundary at the first epoch (PU 0,
	// node 0, rack 0 → PU 6, node 3, rack 1), and capture the window a
	// later epoch's hook observes — the matrix an adaptive engine would
	// decide from after the move.
	moved := false
	var postMove *comm.Matrix
	err = rt.ConfigureEpochs(4, func(ep *Epoch) {
		switch ep.Index() {
		case 1:
			for _, task := range ep.Tasks() {
				if task.ID() == 0 {
					if err := ep.Rebind(task, 6); err != nil {
						t.Errorf("cross-node rebind: %v", err)
					}
					moved = true
				}
			}
		case 2:
			postMove = ep.Window()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if !moved {
		t.Fatal("the epoch hook never saw task 0")
	}
	if got := tasks[0].Proc().PU(); got != 6 {
		t.Errorf("task 0 on PU %d after the run, want 6", got)
	}
	// The written region followed the task across the fabric.
	if home := rt.Locations()[0].Region().Home(); home != mach.NodeOfPU(6) {
		t.Errorf("task 0's region homed on node %d, want node %d", home, mach.NodeOfPU(6))
	}
	// The second epoch's window covers post-rebind iterations only (the
	// roll at epoch 1 cleared everything earlier): it must still record the
	// migrated task's exchanges under its stable ID 0.
	if postMove == nil {
		t.Fatal("the second epoch never fired")
	}
	if postMove.Order() != n {
		t.Fatalf("window order %d, want %d", postMove.Order(), n)
	}
	if vol := postMove.At(0, 1) + postMove.At(1, 0) + postMove.At(0, n-1) + postMove.At(n-1, 0); vol <= 0 {
		t.Errorf("no post-rebind traffic recorded for the migrated task (window row0 %v)", vol)
	}
	// The unbounded measured matrix agrees: task 0's total recorded volume
	// spans the whole run, before and after the move.
	m := rt.MeasuredCommMatrix()
	if vol := m.At(0, 1) + m.At(0, n-1); vol < float64(volume)*float64(iters-1) {
		t.Errorf("measured matrix lost the migrated task's traffic: %v", vol)
	}
}
