package orwl

import (
	"fmt"
	"sync/atomic"
	"testing"
)

// TestManyTasksManyLocations is a stress test: a 2-D torus of tasks, each
// reading two neighbour locations and writing its own, over many
// iterations. It exercises canonical init, read-sharing, re-request cycling
// and the leak checker at a scale closer to the paper's 1728-task runs.
// Run with -race in CI to validate the locking protocol.
func TestManyTasksManyLocations(t *testing.T) {
	const (
		side  = 12 // 144 tasks, 144 locations
		iters = 25
	)
	rt := buildRuntime()
	locs := make([]*Location, side*side)
	for i := range locs {
		locs[i] = rt.NewLocation(fmt.Sprintf("l%d", i), 8)
		locs[i].SetData([]float64{1})
	}
	id := func(x, y int) int { return ((y+side)%side)*side + (x+side)%side }
	var grants int64
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			task := rt.AddTask(fmt.Sprintf("t(%d,%d)", x, y), func(task *Task) error {
				// Creation order below: east read, south read, own write.
				re, rs, rw := task.Handle(0), task.Handle(1), task.Handle(2)
				for it := 0; it < iters; it++ {
					last := it == iters-1
					var east, south float64
					for _, r := range []*Handle{re, rs} {
						if err := r.Acquire(); err != nil {
							return err
						}
						v, err := r.Float64s()
						if err != nil {
							return err
						}
						if r == re {
							east = v[0]
						} else {
							south = v[0]
						}
						atomic.AddInt64(&grants, 1)
						if err := r.ReleaseOrNext(last); err != nil {
							return err
						}
					}
					if err := rw.Acquire(); err != nil {
						return err
					}
					v, err := rw.Float64s()
					if err != nil {
						return err
					}
					v[0] = (east + south) / 2
					atomic.AddInt64(&grants, 1)
					if err := rw.ReleaseOrNext(last); err != nil {
						return err
					}
				}
				return nil
			})
			// Readers rank 0, writer rank 1 (the canonical stencil cycle).
			task.NewHandleVol(locs[id(x+1, y)], Read, 8, 0)
			task.NewHandleVol(locs[id(x, y+1)], Read, 8, 0)
			task.NewHandleVol(locs[id(x, y)], Write, 8, 1)
		}
	}
	if err := rt.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if want := int64(side * side * iters * 3); grants != want {
		t.Errorf("grants = %d, want %d", grants, want)
	}
	// All-ones torus averaging stays all ones: a cheap global invariant.
	for i, l := range locs {
		if v := l.PeekData().([]float64)[0]; v != 1 {
			t.Fatalf("location %d = %v, want 1", i, v)
		}
	}
	// Every queue fully drained.
	for _, l := range locs {
		if l.QueueLen() != 0 {
			t.Errorf("location %s queue = %d", l.Name(), l.QueueLen())
		}
	}
}

// TestReadSharingGrantsCountedOnce verifies that a group grant of k readers
// counts k grants and that interleaving writers break the groups at the
// right positions.
func TestReadSharingGrantsCountedOnce(t *testing.T) {
	rt := buildRuntime()
	loc := rt.NewLocation("x", 8)
	// Queue: R R W R R -> groups {r1,r2}, {w}, {r3,r4}.
	mk := func(mode Mode) *Handle {
		return rt.AddTask("t", nil).NewHandle(loc, mode)
	}
	r1, r2, w, r3, r4 := mk(Read), mk(Read), mk(Write), mk(Read), mk(Read)
	for _, h := range []*Handle{r1, r2, w, r3, r4} {
		if err := h.Request(); err != nil {
			t.Fatal(err)
		}
	}
	if loc.Grants() != 2 {
		t.Fatalf("initial grants = %d, want the leading read pair", loc.Grants())
	}
	for _, h := range []*Handle{r1, r2} {
		if err := h.Acquire(); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if loc.Grants() != 3 {
		t.Fatalf("grants after readers = %d, want writer granted", loc.Grants())
	}
	if err := w.Acquire(); err != nil {
		t.Fatal(err)
	}
	if err := w.Release(); err != nil {
		t.Fatal(err)
	}
	if loc.Grants() != 5 {
		t.Fatalf("grants after writer = %d, want trailing read pair", loc.Grants())
	}
	for _, h := range []*Handle{r3, r4} {
		if err := h.Acquire(); err != nil {
			t.Fatal(err)
		}
		if err := h.Release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestVirtualClockMonotonePerTask checks a core engine invariant: a task's
// virtual clock never decreases through any sequence of operations.
func TestVirtualClockMonotonePerTask(t *testing.T) {
	rt := simRuntime(t, "pack:2 l3:1 core:4 pu:1", 13)
	locs := ringProgram(rt, 8, 15, 4096)
	_ = locs
	type sample struct {
		task  string
		clock float64
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Reconstruct per-task clocks from stats: wait + compute + memory +
	// transfer should not exceed the final clock (equality holds since all
	// charges go through those four buckets).
	for _, task := range rt.Tasks() {
		st := task.Proc().Stats()
		sum := st.ComputeCycles + st.MemoryCycles + st.TransferCycles + st.WaitCycles
		clock := task.Proc().Clock()
		diff := clock - sum
		if diff < -1e-6 || diff > 1e-6+float64(st.Migrations)*rt.Machine().Config().MigrationPenaltyCycles {
			t.Errorf("%s: clock %v != bucket sum %v (+migrations)", task.Name(), clock, sum)
		}
	}
}
