package placement

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/orwl"
)

// TestScatterUnevenTopology is the regression test for the Scatter aliasing
// bug: on a machine whose sockets do not evenly divide the cores, the old
// `(k/sockets) % (cores/sockets)` arithmetic doubled up some cores while
// leaving others idle. Scatter must assign the first NumCores tasks to
// NumCores distinct cores, interleaved across the sockets.
func TestScatterUnevenTopology(t *testing.T) {
	mach := machine(t, "pack:3 core:2,1,1 pu:1") // 4 cores over 3 sockets
	m := comm.Ring(4, 1)
	a, err := Scatter{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i, pu := range a.TaskPU {
		if pu < 0 || pu >= mach.Topology().NumPUs() {
			t.Fatalf("task %d on PU %d, out of range", i, pu)
		}
		if seen[pu] {
			t.Errorf("task %d aliases an already-used PU %d", i, pu)
		}
		seen[pu] = true
	}
	if len(seen) != 4 {
		t.Errorf("scatter used %d distinct cores, want 4", len(seen))
	}
	// Consecutive tasks land on different sockets while sockets remain.
	n0 := mach.NodeOfPU(a.TaskPU[0])
	n1 := mach.NodeOfPU(a.TaskPU[1])
	if n0 == n1 {
		t.Errorf("tasks 0 and 1 share socket/node %d; want interleaved", n0)
	}
}

func TestScatterEvenTopologyUnchanged(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:2 pu:1")
	m := comm.Ring(4, 1)
	a, err := Scatter{}.Assign(mach, m)
	if err != nil {
		t.Fatal(err)
	}
	// Socket-interleaved order on 2 sockets × 2 cores: c0, c2, c1, c3.
	want := []int{0, 2, 1, 3}
	for i, pu := range a.TaskPU {
		if pu != want[i] {
			t.Errorf("TaskPU = %v, want %v", a.TaskPU, want)
			break
		}
	}
}

// adaptiveRing builds the same iterative ring as the orwl epoch tests:
// task i writes its own location, reads its left neighbour's, and calls
// EndIteration after the iteration's final release.
func adaptiveRing(rt *orwl.Runtime, n, iters int, volume float64) {
	locs := make([]*orwl.Location, n)
	for i := 0; i < n; i++ {
		locs[i] = rt.NewLocation("ring", int64(volume))
	}
	for i := 0; i < n; i++ {
		task := rt.AddTask("t", nil)
		r := task.NewHandleVol(locs[(i+n-1)%n], orwl.Read, volume, 0)
		w := task.NewHandleVol(locs[i], orwl.Write, volume, 1)
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
}

func TestAdaptiveStationaryHoldsStill(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:4 pu:1")
	rt := orwl.NewRuntime(orwl.Options{Machine: mach})
	adaptiveRing(rt, 8, 12, 1<<20)
	eng, err := PlaceAdaptive(rt, AdaptiveOptions{EpochIters: 3}, nil)
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
	if st.Epochs != 4 {
		t.Errorf("epochs = %d, want 4", st.Epochs)
	}
	// A stationary pattern matches the static prediction: hysteresis must
	// keep the engine from churning tasks for permutation-equivalent
	// candidates.
	if st.Rebinds != 0 {
		t.Errorf("stationary workload caused %d rebinds, want 0 (applied=%d skipped=%d)",
			st.Rebinds, st.Applied, st.Skipped)
	}
}

func TestPlaceAdaptiveValidation(t *testing.T) {
	rt := orwl.NewRuntime(orwl.Options{})
	if _, err := PlaceAdaptive(rt, AdaptiveOptions{EpochIters: 1}, nil); err == nil {
		t.Errorf("adaptive placement accepted a machine-less runtime")
	}
	mach := machine(t, "pack:2 l3:1 core:2 pu:1")
	rt2 := orwl.NewRuntime(orwl.Options{Machine: mach})
	adaptiveRing(rt2, 2, 2, 64)
	if _, err := PlaceAdaptive(rt2, AdaptiveOptions{}, nil); err == nil {
		t.Errorf("adaptive placement accepted EpochIters 0")
	}
}

func TestMappingCostPrefersLocality(t *testing.T) {
	mach := machine(t, "pack:2 l3:1 core:2 pu:1")
	m := comm.New(2)
	m.AddSym(0, 1, 1<<20)
	local := MappingCost(mach, m, []int{0, 1})  // same socket
	remote := MappingCost(mach, m, []int{0, 2}) // across sockets
	if local >= remote {
		t.Errorf("local mapping cost %v not below remote %v", local, remote)
	}
}
